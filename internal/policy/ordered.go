package policy

import (
	"cmp"
	"math"
	"slices"
)

// The latency-ordered kernel. On a frozen board every builtin migrator has
// µ(ℓ_q, ℓ_p) = 0 unless ℓ_q > ℓ_p, and above that µ is min{1, ·} of a
// power of the gain ℓ_q − ℓ_p (relative gain also divides by the origin's
// max(ℓ_q, floor)). With an origin-invariant sampler the rate from q into p
// is σ_p·µ(ℓ_q, ℓ_p). So once a commodity's paths are sorted by board
// latency, the inflow into p is σ_p times a window moment over the paths
// costlier than p plus the mass of the paths whose migration into p is
// clipped at 1, and each origin's row sum is the same over the cheaper
// paths. Ordered evaluates those in O(n) per flow vector after an
// O(n log n) fill, where the dense rate matrix costs O(n²) for both.
//
// Every window moment is built from non-negative latency gaps, never as
// Σf·ℓ − ℓ_p·Σf: a common latency offset cancels exactly in each gap, so it
// costs no precision. Windows are also never a difference of two suffix
// sums, which would cancel the clipped tail's large moments; see windows.

// orderedKind names the closed form of one builtin migrator.
type orderedKind uint8

const (
	orderedBetterResponse orderedKind = iota
	orderedLinear
	orderedAlphaLinear
	orderedQuadratic
	orderedRelativeGain
)

// Ordered holds one commodity's frozen-board migration rates in latency
// order. Build it with NewOrdered, refill it from each board with Fill, and
// apply it to flow vectors with Inflow. Positions k index the sorted order;
// p and q index the commodity's paths.
type Ordered struct {
	kind               orderedKind
	alpha, lmax, floor float64
	// coef scales a window moment into a rate: 1/ℓmax, α, α/ℓmax or α;
	// better response has empty windows and coef 0.
	coef float64

	ord   []int32   // ord[k]: the path at position k
	lat   []float64 // board latency by position, ascending
	sig   []float64 // sampling probability by position
	scale []float64 // relative gain: 1/max(ℓ, floor) by position
	// The flow at positions [lo[k], hi[k]) migrates into position k at a
	// gain below the clip; from hi[k] on it migrates at rate 1. lo[k] is
	// the first position strictly costlier than k.
	lo, hi  []int32
	rowSums []float64 // by path
	win     windows   // the plan of the windows [lo[k], hi[k])

	// Scratch.
	fs, ws, tail, mom []float64
	rlo, rhi          []int32
}

// NewOrdered returns the ordered kernel of migrator m for a commodity of n
// paths, or nil when m is not a builtin migrator with a closed form.
func NewOrdered(m Migrator, n int) *Ordered {
	o := &Ordered{}
	switch mg := m.(type) {
	case BetterResponse:
		o.kind = orderedBetterResponse
	case Linear:
		o.kind, o.lmax, o.coef = orderedLinear, mg.LMax, 1/mg.LMax
	case AlphaLinear:
		o.kind, o.alpha, o.coef = orderedAlphaLinear, mg.AlphaParam, mg.AlphaParam
	case Quadratic:
		o.kind, o.alpha, o.lmax, o.coef = orderedQuadratic, mg.AlphaParam, mg.LMax, mg.AlphaParam/mg.LMax
	case RelativeGain:
		o.kind, o.alpha, o.floor, o.coef = orderedRelativeGain, mg.AlphaParam, mg.Floor, mg.AlphaParam
	default:
		return nil
	}
	// 8n+1 floats and 5n ints for the kernel, the rest for its windows.
	sl := &slab{f: make([]float64, 18*n+7), i: make([]int32, 11*n)}
	o.ord, o.lo, o.hi, o.rlo, o.rhi = sl.ints(n), sl.ints(n), sl.ints(n), sl.ints(n), sl.ints(n)
	for k := range o.ord {
		o.ord[k] = int32(k)
	}
	o.lat, o.sig, o.scale, o.rowSums = sl.floats(n), sl.floats(n), sl.floats(n), sl.floats(n)
	o.fs, o.ws, o.mom, o.tail = sl.floats(n), sl.floats(n), sl.floats(n), sl.floats(n+1)
	o.win = newWindows(n, sl)
	return o
}

// slab hands out consecutive pieces of two allocations, so a kernel costs
// two allocations whatever its size.
type slab struct {
	f []float64
	i []int32
}

func (s *slab) floats(m int) []float64 {
	p := s.f[:m:m]
	s.f = s.f[m:]
	return p
}

func (s *slab) ints(m int) []int32 {
	p := s.i[:m:m]
	s.i = s.i[m:]
	return p
}

// clipped reports whether µ(x, y), the migration from latency x to latency
// y < x, is clipped to 1: the same expression, in the same operation order,
// that MigrationRates and InflowRates pass to min1.
func (o *Ordered) clipped(x, y float64) bool {
	switch o.kind {
	case orderedLinear:
		return (x-y)/o.lmax > 1
	case orderedAlphaLinear:
		return o.alpha*(x-y) > 1
	case orderedQuadratic:
		d := x - y
		return o.alpha*d*d/o.lmax > 1
	case orderedRelativeGain:
		return o.alpha*(x-y)/math.Max(x, o.floor) > 1
	}
	return true // better response: every improving move has µ = 1
}

// RowSums returns each path's total migration rate out, Σ_q σ_q·µ(ℓ_p, ℓ_q),
// indexed by path and valid after Fill.
func (o *Ordered) RowSums() []float64 { return o.rowSums }

// Fill sorts the commodity by board latency lats (ties by path index),
// locates each path's breakpoints and computes the row sums. probs is the
// origin-invariant sampling distribution. It allocates nothing.
func (o *Ordered) Fill(lats, probs []float64) {
	n := len(o.ord)
	// The previous board's order is a near-sorted start; the comparison is
	// a total order, so the result does not depend on it.
	slices.SortFunc(o.ord, func(a, b int32) int {
		if c := cmp.Compare(lats[a], lats[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for k, p := range o.ord {
		o.lat[k], o.sig[k] = lats[p], probs[p]
	}
	if o.kind == orderedRelativeGain {
		for k, l := range o.lat {
			o.scale[k] = 1 / math.Max(l, o.floor)
		}
	}
	// Tie groups: lo[k] is the end of k's group, rlo[n-1-k] its start
	// mirrored (see fillRowSums).
	for start := 0; start < n; {
		end := start + 1
		for end < n && o.lat[end] == o.lat[start] {
			end++
		}
		for k := start; k < end; k++ {
			o.lo[k] = int32(end)
			o.rlo[n-1-k] = int32(n - start)
		}
		start = end
	}
	// Clip breakpoints: the first costlier position whose migration into k
	// is clipped. Each search starts at the previous breakpoint, which
	// keeps the windows monotone should rounding make the clip test
	// non-monotone in k; a position that moves then counts at its
	// unclipped rate, within rounding of 1.
	prev := 0
	for k, y := range o.lat {
		prev = o.firstClippedOrigin(max(int(o.lo[k]), prev), y)
		o.hi[k] = int32(prev)
	}
	o.fillRowSums()
	o.win.plan(o.lat, o.lo, o.hi)
}

// firstClippedOrigin returns the first position j ≥ from whose migration
// into latency y is clipped at 1, or n when there is none. Costlier
// origins have larger gains, so the clipped ones form a suffix, and an
// unclipped costliest origin settles the search at once.
func (o *Ordered) firstClippedOrigin(from int, y float64) int {
	to := len(o.lat)
	if from >= to || !o.clipped(o.lat[to-1], y) {
		return to
	}
	for from < to {
		mid := int(uint(from+to) >> 1)
		if o.clipped(o.lat[mid], y) {
			to = mid
		} else {
			from = mid + 1
		}
	}
	return from
}

// firstUnclippedTarget returns the first position t < to whose migration
// from latency x is not clipped at 1, or to when there is none. Cheaper
// targets have larger gains, so the clipped ones form a prefix, and an
// unclipped cheapest target settles the search at once.
func (o *Ordered) firstUnclippedTarget(to int, x float64) int {
	if to == 0 || !o.clipped(x, o.lat[0]) {
		return 0
	}
	from := 0
	for from < to {
		mid := int(uint(from+to) >> 1)
		if !o.clipped(x, o.lat[mid]) {
			to = mid
		} else {
			from = mid + 1
		}
	}
	return from
}

// fillRowSums computes each origin's row sum Σ_{t cheaper} σ_t·µ(ℓ_k, ℓ_t):
// the σ mass of the targets clipped at 1, which are the cheapest, plus the
// window moment of the rest. The windows run on the mirrored order
// (position r holds k = n−1−r at latency −ℓ_k), where each origin's
// cheaper targets lie above it as windows need.
func (o *Ordered) fillRowSums() {
	n := len(o.ord)
	xr, wr := o.fs, o.ws
	d := n
	for r := 0; r < n; r++ {
		k := n - 1 - r
		xr[r], wr[r] = -o.lat[k], o.sig[k]
		// k's cheaper targets are positions [0, n−rlo[r]); the first d of
		// them are clipped, and the mirrored window ends at n−d. A running
		// minimum of d keeps the mirrored windows monotone, as in Fill.
		d = o.firstUnclippedTarget(min(n-int(o.rlo[r]), d), o.lat[k])
		o.rhi[r] = int32(n - d)
	}
	o.win.plan(xr, o.rlo, o.rhi)
	o.win.sums(wr, o.kind == orderedQuadratic, o.mom)
	// head[t] = Σ_{m<t} σ_m.
	head := o.tail
	acc := 0.0
	for t, s := range o.sig {
		head[t] = acc
		acc += s
	}
	head[n] = acc
	for k, p := range o.ord {
		r := n - 1 - k
		c := o.coef
		if o.kind == orderedRelativeGain {
			c = o.alpha / math.Max(o.lat[k], o.floor)
		}
		o.rowSums[p] = head[n-int(o.rhi[r])] + c*o.mom[r]
	}
}

// Inflow writes in[p] = Σ_q f_q·σ_p·µ(ℓ_q, ℓ_p), the rate at which flow f
// (indexed by path) migrates into each path p on the filled board. It
// costs O(n) and allocates nothing.
func (o *Ordered) Inflow(f, in []float64) {
	n := len(o.ord)
	ord, fs, tail := o.ord[:n], o.fs[:n], o.tail[:n+1]
	t := 0.0
	tail[n] = 0
	for k := n - 1; k >= 0; k-- {
		x := f[ord[k]]
		fs[k] = x
		t += x
		tail[k] = t
	}
	w := fs
	if o.kind == orderedRelativeGain {
		w = o.ws[:n]
		for k, x := range fs {
			w[k] = x * o.scale[k]
		}
	}
	o.win.sums(w, o.kind == orderedQuadratic, o.mom)
	hi, sig, mom := o.hi[:n], o.sig[:n], o.mom[:n]
	for k, p := range o.ord {
		in[p] = sig[k] * (o.coef*mom[k] + tail[hi[k]])
	}
}

// windows evaluates, for every position j of an ascending sequence x, the
// window moment Σ_{m ∈ [lo[j], hi[j])} w[m]·(x[m] − x[j])^e (e = 1, or 2
// for the quadratic rule), where lo and hi are non-decreasing and every
// window lies above its anchor. plan fixes the windows for one board, in
// O(n); sums then evaluates them for any weights w in O(n).
//
// The windows slide right, so they are a two-block queue: a front block
// holding, for each start l, the moments of [l, mid) about x[l], built
// backwards by U[k] = U[k+1] + (x[k+1] − x[k])·S[k+1] over non-negative
// gaps, and a back block [mid, end) growing at its end with its moments
// about x[mid]. A window is the front's suffix plus the back, each shifted
// to x[j] by a non-negative gap; once a window starts past the front, the
// front is rebuilt from the back. plan runs that queue on the indices
// alone and records every block, so sums is one tight loop per block plus
// one pass over the queries. Nothing is subtracted: for non-negative w
// every term is non-negative, and each moment is accurate relative to its
// own window, however large the moments outside it are.
type windows struct {
	// gap[k] = x[k+1] − x[k], read only inside a front block (so a gap to
	// an infinite latency past the block never meets a zero moment);
	// distB[k] = x[k] − x[s] for the back block [s, e) holding k.
	gap, distB []float64
	// The front and back blocks as flattened [start, end) pairs.
	fronts, backs []int32
	// Per query j: the front index (n when its front part is empty) and
	// the back index (the window's last position, or n), with the shifts
	// from each block's anchor to x[j].
	fi, bi []int32
	ga, gb []float64
	// Front suffix and back prefix moments, with zeros at index n.
	f0, f1, f2, b0, b1, b2 []float64
}

// newWindows carves the plan for n positions from sl: 10n+6 floats and
// 6n ints.
func newWindows(n int, sl *slab) windows {
	return windows{
		gap: sl.floats(n), distB: sl.floats(n),
		fronts: sl.ints(2 * n)[:0], backs: sl.ints(2 * n)[:0],
		fi: sl.ints(n), bi: sl.ints(n), ga: sl.floats(n), gb: sl.floats(n),
		f0: sl.floats(n + 1), f1: sl.floats(n + 1), f2: sl.floats(n + 1),
		b0: sl.floats(n + 1), b1: sl.floats(n + 1), b2: sl.floats(n + 1),
	}
}

// plan fixes the blocks for windows [lo[j], hi[j]) over x.
func (wn *windows) plan(x []float64, lo, hi []int32) {
	n := len(x)
	wn.fronts, wn.backs = wn.fronts[:0], wn.backs[:0]
	mid := 0
	for j := range lo {
		l, h := int(lo[j]), int(hi[j])
		if l >= mid {
			// The front is spent: rebuild it over [l, h), end the last
			// back block at h and start an empty one there.
			if l < h {
				wn.fronts = append(wn.fronts, int32(l), int32(h))
			}
			if nb := len(wn.backs); nb > 0 {
				wn.backs[nb-1] = int32(h)
			}
			wn.backs = append(wn.backs, int32(h), int32(n))
			mid = h
		}
		wn.fi[j], wn.ga[j] = int32(n), 0
		if l < mid {
			wn.fi[j], wn.ga[j] = int32(l), x[l]-x[j]
		}
		wn.bi[j], wn.gb[j] = int32(n), 0
		if mid < h {
			wn.bi[j], wn.gb[j] = int32(h-1), x[mid]-x[j]
		}
	}
	for k := 0; k+1 < n; k++ {
		wn.gap[k] = x[k+1] - x[k]
	}
	for i := 0; i < len(wn.backs); i += 2 {
		s, e := int(wn.backs[i]), int(wn.backs[i+1])
		for k := s; k < e; k++ {
			wn.distB[k] = x[k] - x[s]
		}
	}
}

// sums writes each window's moment of the weights w into out.
func (wn *windows) sums(w []float64, quad bool, out []float64) {
	n := len(w)
	gap, distB := wn.gap[:n], wn.distB[:n]
	f0, f1, f2 := wn.f0[:n+1], wn.f1[:n+1], wn.f2[:n+1]
	b0, b1, b2 := wn.b0[:n+1], wn.b1[:n+1], wn.b2[:n+1]
	for i := 0; i < len(wn.fronts); i += 2 {
		l, e := int(wn.fronts[i]), int(wn.fronts[i+1])
		s0, s1, s2 := w[e-1], 0.0, 0.0
		f0[e-1], f1[e-1], f2[e-1] = s0, 0, 0
		for k := e - 2; k >= l; k-- {
			g := gap[k]
			if quad {
				s2 += g * (2*s1 + g*s0)
				f2[k] = s2
			}
			s1 += g * s0
			s0 += w[k]
			f0[k], f1[k] = s0, s1
		}
	}
	for i := 0; i < len(wn.backs); i += 2 {
		s, e := int(wn.backs[i]), int(wn.backs[i+1])
		var c0, c1, c2 float64
		for k := s; k < e; k++ {
			v, d := w[k], distB[k]
			if quad {
				c2 += v * d * d
				b2[k] = c2
			}
			c0 += v
			c1 += v * d
			b0[k], b1[k] = c0, c1
		}
	}
	fi, bi, ga, gb := wn.fi[:n], wn.bi[:n], wn.ga[:n], wn.gb[:n]
	out = out[:n]
	if quad {
		for j := range out {
			f, b, g, h := fi[j], bi[j], ga[j], gb[j]
			out[j] = f2[f] + g*(2*f1[f]+g*f0[f]) + b2[b] + h*(2*b1[b]+h*b0[b])
		}
		return
	}
	for j := range out {
		f, b := fi[j], bi[j]
		out[j] = f1[f] + ga[j]*f0[f] + b1[b] + gb[j]*b0[b]
	}
}
