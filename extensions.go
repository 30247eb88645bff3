package wardrop

import (
	"io"

	"wardrop/internal/policy"
	"wardrop/internal/spec"
)

// Relative-gain migration ----------------------------------------------------------

// RelativeGainMigrator migrates on the relative latency gain
// min{1, α(ℓP−ℓQ)/max(ℓP, Floor)} — an elasticity-flavoured extension that
// remains (α/Floor)-smooth and therefore keeps Corollary 5's guarantee.
type RelativeGainMigrator = policy.RelativeGain

// NewRelativeGainMigrator validates parameters and builds the rule.
func NewRelativeGainMigrator(alpha, floor float64) (RelativeGainMigrator, error) {
	return policy.NewRelativeGain(alpha, floor)
}

// JSON instance specifications -------------------------------------------------------

// InstanceSpec is the JSON document shape for loading instances from files.
type InstanceSpec = spec.Instance

// EdgeSpec is one edge of an InstanceSpec.
type EdgeSpec = spec.Edge

// CommoditySpec is one commodity of an InstanceSpec.
type CommoditySpec = spec.Commodity

// LatencySpec is the tagged latency-function union of an InstanceSpec.
type LatencySpec = spec.Latency

// ParseInstance decodes a JSON instance specification and builds it.
func ParseInstance(r io.Reader) (*Instance, error) { return spec.Parse(r) }
