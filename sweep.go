package wardrop

import (
	"context"
	"io"

	"wardrop/internal/report"
	"wardrop/internal/sweep"
)

// Table is a titled grid of cells with ASCII rendering and CSV output, the
// result shape shared by the experiment harness and the sweep aggregator.
type Table = report.Table

// Campaign sweep engine ------------------------------------------------------

// Campaign is a batch campaign specification: a cross product of topology,
// policy, update-period, population and seed axes plus shared run-shape
// scalars. See ParseCampaign for the JSON document shape.
type Campaign = sweep.Campaign

// CampaignTopology selects one instance family in a campaign.
type CampaignTopology = sweep.Topology

// CampaignPolicy selects one rerouting policy in a campaign.
type CampaignPolicy = sweep.PolicySpec

// CampaignPeriod is one update-period axis value ("safe" or a number).
type CampaignPeriod = sweep.Period

// SweepTask is one cell × seed of an expanded campaign.
type SweepTask = sweep.Task

// SweepRecord is one task's outcome — one line of the streaming JSONL
// result file.
type SweepRecord = sweep.Record

// SweepOptions configures a sweep run (worker count, streaming JSONL sink,
// progress callback).
type SweepOptions = sweep.Options

// SweepResult is a completed sweep: the campaign, its task list, and one
// record per task sorted by task ID.
type SweepResult = sweep.RunResult

// SweepCell is one aggregated campaign cell (all axes except the seed).
type SweepCell = sweep.Cell

// ParseCampaign decodes and validates a JSON campaign specification.
func ParseCampaign(r io.Reader) (*Campaign, error) { return sweep.ParseCampaign(r) }

// RunSweep expands the campaign into its deterministic task list and executes
// every task on a worker pool, streaming one canonical JSONL record per run to
// opts.Results. Task failures (including panics) are isolated into per-task
// records; the returned error is reserved for invalid campaigns, context
// cancellation and sink failures.
func RunSweep(ctx context.Context, c *Campaign, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(ctx, c, opts)
}

// AggregateSweep groups records into per-cell summaries (mean / median /
// percentiles over the seed replicates).
func AggregateSweep(records []SweepRecord) []SweepCell { return sweep.Aggregate(records) }

// SweepSummaryTable renders aggregated cells as a report table (ASCII render
// and CSV via the report package).
func SweepSummaryTable(name string, cells []SweepCell) *Table {
	return sweep.SummaryTable(name, cells)
}
