// Package tntp imports traffic-assignment instances in the TNTP text
// format used by the Transportation Networks repository (Sioux Falls,
// Anaheim, Chicago-regional, …) — the canonical benchmark set for
// Beckmann-potential equilibrium codes — into flow.Instance values, so
// scenarios, campaigns, wardserve and the solver all get real road
// networks through the ordinary topology catalog.
//
// The format is two files. The network file carries `<KEY> value`
// metadata lines up to `<END OF METADATA>`, then one link row per line
// (init node, term node, capacity, length, free-flow time, B, power,
// speed, toll, type) terminated by `;`, with `~` starting comments. The
// trips file carries the same metadata shape, then `Origin o` headers
// followed by `dest : demand;` entries. Node IDs are 1-based; the first
// <NUMBER OF ZONES> nodes double as the zones demand originates from.
//
// Link travel time is the BPR form t(x) = fft·(1 + B·(x/cap)^power).
// Rows with the standard B = 0.15, power = 4 map to the native
// latency.BPR kind (batched by the kernel); other non-negative B with
// positive integer powers map to Constant + Monomial sums; non-integer
// powers are rejected.
package tntp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"wardrop/internal/flow"
	"wardrop/internal/graph"
	"wardrop/internal/latency"
)

// Link is one parsed network-file row. From and To are 1-based TNTP node
// IDs.
type Link struct {
	From, To                                              int
	Capacity, Length, FreeFlowTime, B, Power, Speed, Toll float64
	Type                                                  int
}

// Network is a parsed TNTP network file.
type Network struct {
	Zones         int
	Nodes         int
	FirstThruNode int
	Links         []Link
}

// OD is one origin–destination demand (1-based zone IDs).
type OD struct {
	Origin, Dest int
	Demand       float64
}

// Trips is a parsed TNTP trips file. ODs are sorted by (origin, dest), so
// commodity order — and therefore instance fingerprints — never depend on
// file layout quirks.
type Trips struct {
	Zones   int
	TotalOD float64
	ODs     []OD
}

// metadata reads `<KEY> value` lines up to <END OF METADATA>, returning
// the remaining body scanner position. Unknown keys are ignored.
func metadata(sc *bufio.Scanner, meta map[string]string) error {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "~") {
			continue
		}
		if !strings.HasPrefix(line, "<") {
			// Tolerate files without an explicit end marker.
			return fmt.Errorf("tntp: unexpected body line %q before <END OF METADATA>", line)
		}
		end := strings.Index(line, ">")
		if end < 0 {
			return fmt.Errorf("tntp: unterminated metadata tag %q", line)
		}
		key := strings.ToUpper(strings.TrimSpace(line[1:end]))
		if key == "END OF METADATA" {
			return nil
		}
		meta[key] = strings.TrimSpace(line[end+1:])
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("tntp: missing <END OF METADATA>")
}

// metaField returns the first field of a present metadata key's value.
func metaField(meta map[string]string, key string) (string, error) {
	f := strings.Fields(meta[key])
	if len(f) == 0 {
		return "", fmt.Errorf("tntp: metadata <%s> has no value", key)
	}
	return f[0], nil
}

func metaInt(meta map[string]string, key string) (int, error) {
	if _, ok := meta[key]; !ok {
		return 0, fmt.Errorf("tntp: missing metadata <%s>", key)
	}
	v, err := metaField(meta, key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("tntp: metadata <%s> = %q: %v", key, meta[key], err)
	}
	return n, nil
}

// ParseNet parses a TNTP network file.
func ParseNet(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	meta := map[string]string{}
	if err := metadata(sc, meta); err != nil {
		return nil, err
	}
	net := &Network{FirstThruNode: 1}
	var err error
	if net.Zones, err = metaInt(meta, "NUMBER OF ZONES"); err != nil {
		return nil, err
	}
	if net.Nodes, err = metaInt(meta, "NUMBER OF NODES"); err != nil {
		return nil, err
	}
	// Zones are the first nodes, so Instance can index them by node ID.
	if net.Zones < 1 {
		return nil, fmt.Errorf("tntp: <NUMBER OF ZONES> = %d, want at least 1", net.Zones)
	}
	if net.Nodes < net.Zones {
		return nil, fmt.Errorf("tntp: %d nodes, fewer than the %d zones", net.Nodes, net.Zones)
	}
	wantLinks, err := metaInt(meta, "NUMBER OF LINKS")
	if err != nil {
		return nil, err
	}
	if _, ok := meta["FIRST THRU NODE"]; ok {
		if net.FirstThruNode, err = metaInt(meta, "FIRST THRU NODE"); err != nil {
			return nil, err
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "~"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		line = strings.TrimSuffix(strings.TrimSpace(line), ";")
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 7 {
			return nil, fmt.Errorf("tntp: link row %q: want >= 7 fields, got %d", line, len(fields))
		}
		nums := make([]float64, len(fields))
		for i, f := range fields {
			if nums[i], err = strconv.ParseFloat(f, 64); err != nil {
				return nil, fmt.Errorf("tntp: link row %q field %d: %v", line, i, err)
			}
		}
		lk := Link{
			From:         int(nums[0]),
			To:           int(nums[1]),
			Capacity:     nums[2],
			Length:       nums[3],
			FreeFlowTime: nums[4],
			B:            nums[5],
			Power:        nums[6],
		}
		if len(nums) > 7 {
			lk.Speed = nums[7]
		}
		if len(nums) > 8 {
			lk.Toll = nums[8]
		}
		if len(nums) > 9 {
			lk.Type = int(nums[9])
		}
		if lk.From < 1 || lk.From > net.Nodes || lk.To < 1 || lk.To > net.Nodes {
			return nil, fmt.Errorf("tntp: link %d→%d outside node range 1..%d", lk.From, lk.To, net.Nodes)
		}
		net.Links = append(net.Links, lk)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(net.Links) != wantLinks {
		return nil, fmt.Errorf("tntp: parsed %d links, metadata promised %d", len(net.Links), wantLinks)
	}
	return net, nil
}

// ParseTrips parses a TNTP trips file.
func ParseTrips(r io.Reader) (*Trips, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	meta := map[string]string{}
	if err := metadata(sc, meta); err != nil {
		return nil, err
	}
	tr := &Trips{}
	var err error
	if tr.Zones, err = metaInt(meta, "NUMBER OF ZONES"); err != nil {
		return nil, err
	}
	if _, ok := meta["TOTAL OD FLOW"]; ok {
		v, err := metaField(meta, "TOTAL OD FLOW")
		if err != nil {
			return nil, err
		}
		if tr.TotalOD, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, fmt.Errorf("tntp: metadata <TOTAL OD FLOW> = %q: %v", meta["TOTAL OD FLOW"], err)
		}
	}
	origin := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "~") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "Origin"); ok {
			if origin, err = strconv.Atoi(strings.TrimSpace(rest)); err != nil {
				return nil, fmt.Errorf("tntp: origin header %q: %v", line, err)
			}
			continue
		}
		if origin == 0 {
			return nil, fmt.Errorf("tntp: OD entry %q before any Origin header", line)
		}
		for _, ent := range strings.Split(line, ";") {
			ent = strings.TrimSpace(ent)
			if ent == "" {
				continue
			}
			dst, dem, ok := strings.Cut(ent, ":")
			if !ok {
				return nil, fmt.Errorf("tntp: OD entry %q: want dest : demand", ent)
			}
			d, err := strconv.Atoi(strings.TrimSpace(dst))
			if err != nil {
				return nil, fmt.Errorf("tntp: OD entry %q dest: %v", ent, err)
			}
			dm, err := strconv.ParseFloat(strings.TrimSpace(dem), 64)
			if err != nil {
				return nil, fmt.Errorf("tntp: OD entry %q demand: %v", ent, err)
			}
			tr.ODs = append(tr.ODs, OD{Origin: origin, Dest: d, Demand: dm})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(tr.ODs, func(i, j int) bool {
		if tr.ODs[i].Origin != tr.ODs[j].Origin {
			return tr.ODs[i].Origin < tr.ODs[j].Origin
		}
		return tr.ODs[i].Dest < tr.ODs[j].Dest
	})
	return tr, nil
}

// Options shape the imported instance.
type Options struct {
	// KPaths is each commodity's strategy-set size (k shortest free-flow
	// paths). 0 means 8.
	KPaths int
	// DemandScale multiplies every OD demand (0 means 1). Sub-1 scales are
	// the standard way to study the same network under lighter load.
	DemandScale float64
}

func (o Options) kPaths() int {
	if o.KPaths == 0 {
		return 8
	}
	return o.KPaths
}

func (o Options) demandScale() float64 {
	if o.DemandScale == 0 {
		return 1
	}
	return o.DemandScale
}

// linkLatency maps one link's BPR parameters onto a latency function.
func linkLatency(lk Link) (latency.Function, error) {
	fft := lk.FreeFlowTime
	if fft < 0 {
		return nil, fmt.Errorf("tntp: link %d→%d: negative free-flow time %g", lk.From, lk.To, fft)
	}
	if lk.B == 0 || lk.Power == 0 || fft == 0 {
		return latency.Constant{C: fft}, nil
	}
	if lk.B < 0 {
		return nil, fmt.Errorf("tntp: link %d→%d: negative B %g", lk.From, lk.To, lk.B)
	}
	if lk.Capacity <= 0 {
		return nil, fmt.Errorf("tntp: link %d→%d: capacity %g <= 0 with B > 0", lk.From, lk.To, lk.Capacity)
	}
	if lk.B == 0.15 && lk.Power == 4 {
		return latency.BPR{FreeTime: fft, Capacity: lk.Capacity}, nil
	}
	p := int(lk.Power)
	if float64(p) != lk.Power || p < 1 {
		return nil, fmt.Errorf("tntp: link %d→%d: unsupported BPR power %g (need positive integer)", lk.From, lk.To, lk.Power)
	}
	return latency.Sum{
		A: latency.Constant{C: fft},
		B: latency.Monomial{Coef: fft * lk.B / math.Pow(lk.Capacity, float64(p)), Degree: p},
	}, nil
}

// Instance assembles a flow.Instance from parsed network and trips files.
// Nodes keep their TNTP IDs as names; each positive off-diagonal OD pair
// becomes a commodity named "o->d" in (origin, dest) order with the k
// shortest free-flow paths as its strategy set. FirstThruNode is parsed
// but not enforced (zone-through traffic is not excluded).
func Instance(net *Network, trips *Trips, opts Options) (*flow.Instance, error) {
	if net.Zones != trips.Zones {
		return nil, fmt.Errorf("tntp: network has %d zones, trips %d", net.Zones, trips.Zones)
	}
	g := graph.New()
	nodes := make([]graph.NodeID, net.Nodes+1)
	for i := 1; i <= net.Nodes; i++ {
		nodes[i] = g.MustAddNode(strconv.Itoa(i))
	}
	lats := make([]latency.Function, 0, len(net.Links))
	for _, lk := range net.Links {
		if _, err := g.AddEdge(nodes[lk.From], nodes[lk.To]); err != nil {
			return nil, fmt.Errorf("tntp: link %d→%d: %v", lk.From, lk.To, err)
		}
		lat, err := linkLatency(lk)
		if err != nil {
			return nil, err
		}
		lats = append(lats, lat)
	}
	scale := opts.demandScale()
	var comms []flow.Commodity
	for _, od := range trips.ODs {
		if od.Origin == od.Dest || od.Demand <= 0 {
			continue
		}
		if od.Origin < 1 || od.Origin > net.Zones || od.Dest < 1 || od.Dest > net.Zones {
			return nil, fmt.Errorf("tntp: OD %d→%d outside zone range 1..%d", od.Origin, od.Dest, net.Zones)
		}
		comms = append(comms, flow.Commodity{
			Name:   fmt.Sprintf("%d->%d", od.Origin, od.Dest),
			Source: nodes[od.Origin],
			Sink:   nodes[od.Dest],
			Demand: od.Demand * scale,
		})
	}
	if len(comms) == 0 {
		return nil, fmt.Errorf("tntp: no positive off-diagonal OD demands")
	}
	return flow.NewInstance(g, lats, comms, flow.WithKShortestPaths(opts.kPaths()))
}

// Load reads and assembles an instance from network and trips file paths.
func Load(netPath, tripsPath string, opts Options) (*flow.Instance, error) {
	nf, err := os.Open(netPath)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	net, err := ParseNet(nf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", netPath, err)
	}
	tf, err := os.Open(tripsPath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	trips, err := ParseTrips(tf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tripsPath, err)
	}
	return Instance(net, trips, opts)
}
