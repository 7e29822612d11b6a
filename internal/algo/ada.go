package algo

import (
	"tiresias/internal/forecast"
	"tiresias/internal/hierarchy"
	"tiresias/internal/series"
	"tiresias/internal/shhh"
)

// nodeSeries is the per-heavy-hitter state: the actual and forecast
// series (n.actual / n.forecast in Fig. 5) plus the live forecasting
// model and, optionally, the coarser timescales of §V-B6.
type nodeSeries struct {
	actual *series.Ring
	fcast  *series.Ring
	model  forecast.Linear
	multi  *series.MultiScale
}

// ADA is the paper's adaptive engine (§V-B, Figs. 5–8). It maintains a
// single hierarchy whose heavy-hitter nodes carry time series, and at
// each time instance moves those series to the new heavy-hitter
// positions with SPLIT (top-down) and MERGE (bottom-up) instead of
// reconstructing them, giving O(|tree|) work per instance.
//
// The per-instance hot path is flat: traversals iterate the tree's CSR
// ID orders, the timeunit is consumed in dense (node-ID) form, and all
// scratch — including the returned StepState — is reused across
// instances, so a steady-state Step performs zero allocations.
type ADA struct {
	cfg      Config
	tree     *hierarchy.Tree
	instance int
	inited   bool

	// Per-node state, indexed by node ID and grown with the tree.
	state    []*nodeSeries // non-nil iff the node is in SHHH (plus the root)
	inSHHH   []bool
	weight   []float64 // modified weight W_n of the current instance
	rawA     []float64 // raw aggregated weight A_n of the current instance
	ishh     []bool
	tosplit  []bool
	gotSplit []bool // received a split series this instance (for §V-B5 repair)

	// Touched-ID lists for tosplit/gotSplit, so each instance clears
	// only what the previous instance marked instead of memsetting
	// O(|tree|) flags.
	splitMark []int32
	gotMark   []int32

	// Split-rule statistics (X_n), per node.
	prevA []float64 // raw weight in the previous timeunit
	cumA  []float64 // cumulative raw weight over all timeunits
	ewmaA []float64 // exponentially smoothed raw weight

	// Reference series for nodes in the top h levels (§V-B5).
	refActual  map[int]*series.Ring
	refModel   map[int]forecast.Linear
	refCovered int // tree size when reference coverage was last ensured

	// Reusable scratch and pools for the steady-state step.
	snap      StepState     // returned by snapshot, reused every instance
	members   []int32       // current SHHH member IDs, ascending
	freeNS    []*nodeSeries // pooled series holders (rings attached)
	freeRings []*series.Ring
	candBuf   []int32   // split candidates
	xsBuf     []float64 // split ratios
	valBuf    []float64 // Ring.ValuesInto scratch for model refits
	stackBuf  []int32   // DFS stack for subtractDescendants
}

var _ Engine = (*ADA)(nil)

// NewADA constructs an ADA engine.
func NewADA(cfg Config) (*ADA, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	tree := cfg.Tree
	if tree == nil {
		tree = hierarchy.New()
	}
	return &ADA{
		cfg:       cfg,
		tree:      tree,
		refActual: make(map[int]*series.Ring),
		refModel:  make(map[int]forecast.Linear),
	}, nil
}

// Name implements Engine.
func (a *ADA) Name() string { return "ADA" }

// Tree implements Engine.
func (a *ADA) Tree() *hierarchy.Tree { return a.tree }

// grow extends the per-node state slices to cover newly inserted
// nodes.
func (a *ADA) grow() {
	n := a.tree.Len()
	for len(a.state) < n {
		a.state = append(a.state, nil)
		a.inSHHH = append(a.inSHHH, false)
		a.weight = append(a.weight, 0)
		a.rawA = append(a.rawA, 0)
		a.ishh = append(a.ishh, false)
		a.tosplit = append(a.tosplit, false)
		a.gotSplit = append(a.gotSplit, false)
		a.prevA = append(a.prevA, 0)
		a.cumA = append(a.cumA, 0)
		a.ewmaA = append(a.ewmaA, 0)
	}
}

// Init implements Engine: the first time instance performs the same
// work as STA (lines 2-5 of Fig. 5), seeding series and models for the
// initial SHHH set, the root, and the reference nodes.
func (a *ADA) Init(window []shhh.Unit) (*StepState, error) {
	if a.inited {
		return nil, errState
	}
	a.inited = true

	start := now()
	units := window
	if len(units) > a.cfg.WindowLen {
		units = units[len(units)-a.cfg.WindowLen:]
	}
	if len(units) == 0 {
		units = []shhh.Unit{{}}
	}
	a.grow()
	newest := units[len(units)-1]
	res := shhh.ComputeInto(a.tree, newest, a.cfg.Theta, nil)
	copy(a.weight, res.W)
	copy(a.rawA, res.A)
	copy(a.ishh, res.InSet)
	tUpdate := now().Sub(start)

	// Reconstruct series for the initial SHHH members plus the root
	// (the root always holds the residual series so that it can
	// re-enter SHHH without information loss).
	start = now()
	owners := append([]*hierarchy.Node(nil), res.Set...)
	if !res.IsHH(a.tree.Root()) {
		owners = append(owners, a.tree.Root())
	}
	hist := make(map[int][]float64, len(owners))
	for _, n := range owners {
		hist[n.ID] = make([]float64, 0, len(units))
	}
	var w []float64
	for _, u := range units {
		w = shhh.FrozenWeightsInto(a.tree, u, res.InSet, w)
		for _, n := range owners {
			hist[n.ID] = append(hist[n.ID], w[n.ID])
		}
	}
	for _, n := range owners {
		ts := hist[n.ID]
		ns := a.newNodeSeries()
		ns.actual.SetValues(ts)
		ns.model = a.cfg.NewForecaster(ts[:len(ts)-1])
		// Reconstruct the forecast trajectory by replay so the
		// forecast ring aligns with the actual ring.
		replay := a.cfg.NewForecaster(nil)
		for _, v := range ts {
			ns.fcast.Append(replay.Forecast())
			replay.Update(v)
		}
		if ns.multi != nil {
			for _, v := range ts {
				ns.multi.Update(v)
			}
		}
		// Advance the live model over the newest value so state is
		// "post-instance", matching Step's epilogue.
		ns.model.Update(ts[len(ts)-1])
		a.state[n.ID] = ns
		a.inSHHH[n.ID] = res.IsHH(n)
	}

	// Reference series for the top h levels (§V-B5, raw weights A_n)
	// and split-rule statistics, seeded in one pass over the window.
	for depth := 1; depth <= a.cfg.RefLevels; depth++ {
		for _, n := range a.tree.AtDepth(depth) {
			a.refActual[n.ID] = series.NewRing(a.cfg.WindowLen)
		}
	}
	var agg []float64
	for _, u := range units {
		agg = shhh.AggregateInto(a.tree, u, agg)
		for id, r := range a.refActual {
			r.Append(agg[id])
		}
		for id := range agg {
			a.observeRuleStats(id, agg[id])
		}
	}
	for id, r := range a.refActual {
		vals := r.Values()
		if len(vals) == 0 {
			a.refModel[id] = a.cfg.NewForecaster(nil)
			continue
		}
		a.refModel[id] = a.cfg.NewForecaster(vals[:len(vals)-1])
		a.refModel[id].Update(vals[len(vals)-1])
	}
	a.refCovered = a.tree.Len()
	tSeries := now().Sub(start)

	start = now()
	st := a.snapshot()
	st.Timings = StageTimings{
		UpdatingHierarchies: tUpdate,
		CreatingTimeSeries:  tSeries,
		DetectingAnomalies:  now().Sub(start),
	}
	return st, nil
}

func (a *ADA) newNodeSeries() *nodeSeries {
	ns := &nodeSeries{
		actual: series.NewRing(a.cfg.WindowLen),
		fcast:  series.NewRing(a.cfg.WindowLen),
	}
	if a.cfg.Eta > 1 {
		ms, err := series.NewMultiScale(a.cfg.Lambda, a.cfg.Eta, a.cfg.WindowLen)
		if err == nil {
			ns.multi = ms
		}
	}
	return ns
}

// getSeries returns a series holder with empty rings, reusing a pooled
// one when available.
func (a *ADA) getSeries() *nodeSeries {
	if n := len(a.freeNS); n > 0 {
		ns := a.freeNS[n-1]
		a.freeNS = a.freeNS[:n-1]
		ns.actual.Reset()
		ns.fcast.Reset()
		return ns
	}
	return &nodeSeries{
		actual: series.NewRing(a.cfg.WindowLen),
		fcast:  series.NewRing(a.cfg.WindowLen),
	}
}

// putSeries returns a discarded holder to the pool. The model and
// multi-scale state are dropped (their shapes vary), the rings are
// kept.
func (a *ADA) putSeries(ns *nodeSeries) {
	if ns == nil {
		return
	}
	ns.model = nil
	ns.multi = nil
	a.freeNS = append(a.freeNS, ns)
}

// getRing returns an empty ring of window capacity from the pool.
func (a *ADA) getRing() *series.Ring {
	if n := len(a.freeRings); n > 0 {
		r := a.freeRings[n-1]
		a.freeRings = a.freeRings[:n-1]
		r.Reset()
		return r
	}
	return series.NewRing(a.cfg.WindowLen)
}

// putRing pools a discarded ring.
func (a *ADA) putRing(r *series.Ring) {
	if r != nil && r.Cap() == a.cfg.WindowLen {
		a.freeRings = append(a.freeRings, r)
	}
}

// observeRuleStats updates X_n statistics with the node's raw weight
// for the elapsed timeunit.
func (a *ADA) observeRuleStats(id int, rawA float64) {
	a.prevA[id] = rawA
	a.cumA[id] += rawA
	a.ewmaA[id] = a.cfg.RuleAlpha*rawA + (1-a.cfg.RuleAlpha)*a.ewmaA[id]
}

// ruleX returns the split-rule weight X_n for a node.
func (a *ADA) ruleX(id int) float64 {
	switch a.cfg.Rule {
	case Uniform:
		return 1
	case LastTimeUnit:
		return a.prevA[id]
	case LongTermHistory:
		return a.cumA[id]
	default: // EWMARule
		return a.ewmaA[id]
	}
}

// Step implements Engine: lines 6-29 of Fig. 5 as the flat
// per-instance core. Every traversal is a loop over the tree's CSR ID
// orders; in the steady state (no tree growth, no membership change)
// it allocates nothing.
//
//tiresias:hotpath
func (a *ADA) Step(u *DenseUnit) (*StepState, error) {
	if !a.inited {
		return nil, errState
	}
	a.instance++

	// --- Initialization stage (lines 6-12). ---
	start := now()
	a.grow()
	csr := a.tree.CSR()
	childOff, childIDs := csr.ChildOff, csr.ChildIDs
	for _, id := range a.splitMark {
		a.tosplit[id] = false
	}
	a.splitMark = a.splitMark[:0]
	for _, id := range a.gotMark {
		a.gotSplit[id] = false
	}
	a.gotMark = a.gotMark[:0]
	// Update-Ishh-and-Weight (Fig. 6), as a bottom-up sweep: W_n and
	// A_n of the current timeunit, with ishh ≡ W_n >= θ. Assignment
	// form: direct counts come from the dense unit in O(1), so no
	// per-instance clearing of the weight arrays is needed.
	theta := a.cfg.Theta
	for _, id32 := range csr.BottomUp {
		id := int(id32)
		v := u.ValueAt(id)
		aw, w := v, v
		for j := childOff[id]; j < childOff[id+1]; j++ {
			c := childIDs[j]
			aw += a.rawA[c]
			if !a.ishh[c] {
				w += a.weight[c]
			}
		}
		a.rawA[id], a.weight[id] = aw, w
		a.ishh[id] = w >= theta
	}
	tUpdate := now().Sub(start)

	// --- SHHH and time-series adaptation (lines 13-25). ---
	start = now()
	// Mark ancestors of newly heavy nodes for splitting (lines 13-17).
	for _, id32 := range csr.BottomUp {
		id := int(id32)
		if (a.ishh[id] || a.tosplit[id]) && !a.inSHHH[id] {
			if p := csr.Parent[id]; p >= 0 {
				a.markSplit(int(p))
			}
		}
	}
	// Top-down split pass (lines 18-20; the root is always eligible).
	for _, id32 := range csr.TopDown {
		id := int(id32)
		if a.tosplit[id] && (a.inSHHH[id] || csr.Parent[id] < 0) {
			a.split(id, csr)
		}
	}
	// Bottom-up merge pass (lines 21-23).
	for _, id32 := range csr.BottomUp {
		id := int(id32)
		if a.inSHHH[id] && !a.ishh[id] {
			a.merge(id, csr)
		}
	}
	// Root membership (lines 24-25). The root keeps its residual
	// series either way.
	rootID := a.tree.Root().ID
	a.inSHHH[rootID] = a.ishh[rootID]
	if a.state[rootID] == nil {
		a.state[rootID] = a.freshSeries()
	}
	// Repair split-induced bias with reference series (§V-B5).
	if a.cfg.RefLevels > 0 {
		a.repairFromReferences(csr)
	}
	// Append the new weights to every member's series (lines 26-29).
	for id := range a.state {
		if !a.inSHHH[id] && id != rootID {
			continue
		}
		ns := a.state[id]
		if ns == nil {
			// A heavy hitter that received no series through
			// split or merge (possible only with direct interior
			// counts); start a fresh one.
			ns = a.freshSeries()
			a.state[id] = ns
		}
		ns.fcast.Append(ns.model.Forecast())
		ns.actual.Append(a.weight[id])
		ns.model.Update(a.weight[id])
		if ns.multi != nil {
			ns.multi.Update(a.weight[id])
		}
	}
	// Reference series and split-rule statistics.
	for id, r := range a.refActual {
		r.Append(a.rawA[id])
		a.refModel[id].Update(a.rawA[id])
	}
	a.maintainRefCoverage()
	alpha := a.cfg.RuleAlpha
	for id, v := range a.rawA {
		a.prevA[id] = v
		a.cumA[id] += v
		a.ewmaA[id] = alpha*v + (1-alpha)*a.ewmaA[id]
	}
	tSeries := now().Sub(start)

	// --- Detection stage: forecasts were produced incrementally;
	// assembling the snapshot is the remaining work. ---
	start = now()
	st := a.snapshot()
	st.Timings = StageTimings{
		UpdatingHierarchies: tUpdate,
		CreatingTimeSeries:  tSeries,
		DetectingAnomalies:  now().Sub(start),
	}
	return st, nil
}

// markSplit flags a node for the split pass, recording it for the
// next instance's O(touched) clear.
func (a *ADA) markSplit(id int) {
	if !a.tosplit[id] {
		a.tosplit[id] = true
		a.splitMark = append(a.splitMark, int32(id))
	}
}

// markGotSplit records that a node received a split series this
// instance.
func (a *ADA) markGotSplit(id int) {
	if !a.gotSplit[id] {
		a.gotSplit[id] = true
		a.gotMark = append(a.gotMark, int32(id))
	}
}

// freshSeries creates an empty series whose model is seeded from
// nothing (EWMA-like behaviour until history accumulates).
func (a *ADA) freshSeries() *nodeSeries {
	ns := a.getSeries()
	ns.model = a.cfg.NewForecaster(nil)
	if a.cfg.Eta > 1 {
		ms, err := series.NewMultiScale(a.cfg.Lambda, a.cfg.Eta, a.cfg.WindowLen)
		if err == nil {
			ns.multi = ms
		}
	}
	return ns
}

// scaledCopy builds a child series holder carrying ratio times the
// parent's state, drawing rings from the pool instead of cloning.
func (a *ADA) scaledCopy(src *nodeSeries, ratio float64) *nodeSeries {
	child := a.getSeries()
	_ = child.actual.CopyFrom(src.actual)
	child.actual.Scale(ratio)
	_ = child.fcast.CopyFrom(src.fcast)
	child.fcast.Scale(ratio)
	child.model = src.model.Clone()
	child.model.Scale(ratio)
	if src.multi != nil {
		child.multi = src.multi.Clone()
		child.multi.Scale(ratio)
	}
	return child
}

// split implements SPLIT(n) (Fig. 7): distribute n's series to its
// non-member children with scale ratios from the split rule. Children
// whose ratio is zero and whose subtree holds no heavy hitter are
// skipped (they would receive an all-zero series and immediately merge
// back); their weight stays accounted at n.
func (a *ADA) split(id int, csr *hierarchy.CSR) {
	cands := a.candBuf[:0]
	eligible := false
	for j := csr.ChildOff[id]; j < csr.ChildOff[id+1]; j++ {
		c := int(csr.ChildIDs[j])
		if a.inSHHH[c] {
			continue
		}
		cands = append(cands, int32(c))
		if a.weight[c] >= a.cfg.Theta || a.tosplit[c] {
			eligible = true
		}
	}
	a.candBuf = cands[:0]
	if !eligible || len(cands) == 0 {
		return
	}
	var sumX float64
	xs := a.xsBuf[:0]
	for _, c := range cands {
		x := a.ruleX(int(c))
		if x < 0 {
			x = 0
		}
		xs = append(xs, x)
		sumX += x
	}
	a.xsBuf = xs[:0]
	if sumX == 0 {
		for i := range xs {
			xs[i] = 1
		}
		sumX = float64(len(xs))
	}
	parent := a.state[id]
	if parent == nil {
		parent = a.freshSeries()
	}
	skippedLight := 0
	for i, c32 := range cands {
		c := int(c32)
		ratio := xs[i] / sumX
		needsSeries := a.weight[c] >= a.cfg.Theta || a.tosplit[c]
		if ratio == 0 && !needsSeries {
			// In the paper this child would receive a zero-scaled
			// series and immediately merge back into n; short-
			// circuit that round trip below.
			skippedLight++
			continue
		}
		a.state[c] = a.scaledCopy(parent, ratio)
		a.inSHHH[c] = true
		a.markGotSplit(c)
	}
	a.state[id] = nil
	a.inSHHH[id] = false
	if skippedLight > 0 {
		// Emulate the skipped children's merge-back: n stays a
		// member holding the zero residual series (the sum of the
		// zero-scaled series the skipped children would have
		// returned). If n is light it will merge upward normally.
		a.state[id] = a.scaledCopy(parent, 0)
		a.inSHHH[id] = true
	} else if csr.Parent[id] < 0 {
		// The root must keep a (now empty) residual series holder.
		a.state[id] = a.freshSeries()
	}
	a.putSeries(parent)
}

// merge implements MERGE(n) (Fig. 8): fold the series of n — and of
// any sibling members that are also below threshold — into the parent.
func (a *ADA) merge(id int, csr *hierarchy.CSR) {
	if a.ishh[id] {
		return
	}
	p := csr.Parent[id]
	if p < 0 {
		return // root handled by the membership rule
	}
	pid := int(p)
	dst := a.state[pid]
	if dst == nil {
		dst = a.freshSeries()
		a.state[pid] = dst
	}
	for j := csr.ChildOff[pid]; j < csr.ChildOff[pid+1]; j++ {
		c := int(csr.ChildIDs[j])
		if !a.inSHHH[c] || a.ishh[c] {
			continue
		}
		src := a.state[c]
		if src != nil {
			// Series and model addition are exact thanks to
			// Holt-Winters linearity (Lemma 2).
			_ = dst.actual.AddRing(src.actual)
			_ = dst.fcast.AddRing(src.fcast)
			if forecast.Compatible(dst.model, src.model) {
				_ = dst.model.Add(src.model)
			} else {
				// Shape mismatch (fresh EWMA vs seasoned HW):
				// refit from the merged actual series.
				a.valBuf = dst.actual.ValuesInto(a.valBuf)
				dst.model = a.cfg.NewForecaster(a.valBuf)
			}
			if dst.multi != nil && src.multi != nil {
				_ = dst.multi.Add(src.multi)
			}
			a.putSeries(src)
		}
		a.state[c] = nil
		a.inSHHH[c] = false
	}
	a.inSHHH[pid] = true
}

// repairFromReferences implements §V-B5: for every node that received
// a (possibly biased) split series this instance and has a reference
// series, replace its series with T_REF − Σ series of its heavy-hitter
// descendants. gotMark lists the split receivers in non-decreasing
// depth, so — as in the ID-order walk this replaces — an ancestor is
// repaired before any of its repaired descendants.
func (a *ADA) repairFromReferences(csr *hierarchy.CSR) {
	for _, id32 := range a.gotMark {
		id := int(id32)
		if !a.inSHHH[id] {
			continue
		}
		ref, ok := a.refActual[id]
		if !ok {
			continue
		}
		ns := a.state[id]
		if ns == nil {
			continue
		}
		repaired := a.getRing()
		_ = repaired.CopyFrom(ref)
		a.subtractDescendants(id, repaired, csr)
		a.putRing(ns.actual)
		ns.actual = repaired
		a.valBuf = repaired.ValuesInto(a.valBuf)
		vals := a.valBuf
		if len(vals) > 1 {
			ns.model = a.cfg.NewForecaster(vals[:len(vals)-1])
			a.putRing(ns.fcast)
			ns.fcast = a.getRing()
			replay := a.cfg.NewForecaster(nil)
			for _, v := range vals {
				ns.fcast.Append(replay.Forecast())
				replay.Update(v)
			}
			ns.model.Update(vals[len(vals)-1])
		}
	}
}

// subtractDescendants subtracts from r the actual series of every
// heavy-hitter descendant of id (excluding id itself), stopping
// descent at each member (deeper members are already discounted from
// it). The explicit stack pushes children in reverse so pop order
// matches the recursive preorder walk exactly.
func (a *ADA) subtractDescendants(id int, r *series.Ring, csr *hierarchy.CSR) {
	stack := a.stackBuf[:0]
	for j := csr.ChildOff[id+1] - 1; j >= csr.ChildOff[id]; j-- {
		stack = append(stack, csr.ChildIDs[j])
	}
	for len(stack) > 0 {
		c := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if a.inSHHH[c] && a.state[c] != nil {
			_ = r.SubRing(a.state[c].actual)
			continue
		}
		for j := csr.ChildOff[c+1] - 1; j >= csr.ChildOff[c]; j-- {
			stack = append(stack, csr.ChildIDs[j])
		}
	}
	a.stackBuf = stack[:0]
}

// maintainRefCoverage creates reference series for nodes that newly
// appeared in the top h levels. It is a no-op (without a single map
// lookup) while the tree has not grown.
func (a *ADA) maintainRefCoverage() {
	if a.refCovered == a.tree.Len() {
		return
	}
	for depth := 1; depth <= a.cfg.RefLevels; depth++ {
		for _, n := range a.tree.AtDepth(depth) {
			if _, ok := a.refActual[n.ID]; ok {
				continue
			}
			r := series.NewRing(a.cfg.WindowLen)
			r.Append(a.rawA[n.ID])
			a.refActual[n.ID] = r
			a.refModel[n.ID] = a.cfg.NewForecaster(nil)
			a.refModel[n.ID].Update(a.rawA[n.ID])
		}
	}
	a.refCovered = a.tree.Len()
}

// snapshot assembles the StepState from current membership, reusing
// the engine-owned state and refreshing the member-ID list. Nodes are
// visited in ID order, so HeavyHitters needs no sort.
func (a *ADA) snapshot() *StepState {
	st := &a.snap
	st.Instance = a.instance
	st.HeavyHitters = st.HeavyHitters[:0]
	a.members = a.members[:0]
	for _, n := range a.tree.Nodes() {
		id := n.ID
		if !a.inSHHH[id] {
			continue
		}
		a.members = append(a.members, int32(id))
		ns := a.state[id]
		var actual, fc float64
		if ns != nil {
			if v, ok := ns.actual.Last(); ok {
				actual = v
			}
			if v, ok := ns.fcast.Last(); ok {
				fc = v
			}
		}
		st.HeavyHitters = append(st.HeavyHitters, HeavyHitter{Node: n, Actual: actual, Forecast: fc})
	}
	return st
}

// SeriesOf implements Engine.
func (a *ADA) SeriesOf(n *hierarchy.Node) []float64 {
	if n.ID >= len(a.state) || a.state[n.ID] == nil {
		return nil
	}
	return a.state[n.ID].actual.Values()
}

// ForecastSeriesOf implements Engine.
func (a *ADA) ForecastSeriesOf(n *hierarchy.Node) []float64 {
	if n.ID >= len(a.state) || a.state[n.ID] == nil {
		return nil
	}
	return a.state[n.ID].fcast.Values()
}

// MultiScaleOf returns the node's coarse-timescale series at scale i
// (0 = base), or nil when multi-scale tracking is disabled or the node
// holds no series.
func (a *ADA) MultiScaleOf(n *hierarchy.Node, i int) []float64 {
	if n.ID >= len(a.state) || a.state[n.ID] == nil || a.state[n.ID].multi == nil {
		return nil
	}
	return append([]float64(nil), a.state[n.ID].multi.Series(i)...)
}

// HeavyHitterNodes returns the current SHHH members in node-ID order,
// served from the incrementally maintained member list (no full-tree
// scan).
func (a *ADA) HeavyHitterNodes() []*hierarchy.Node {
	if len(a.members) == 0 {
		return nil
	}
	out := make([]*hierarchy.Node, len(a.members))
	for i, id := range a.members {
		out[i] = a.tree.Node(int(id))
	}
	return out
}

// Memory implements Engine.
func (a *ADA) Memory() MemoryStats {
	m := MemoryStats{TreeNodes: a.tree.Len()}
	for _, ns := range a.state {
		if ns == nil {
			continue
		}
		m.SeriesFloats += ns.actual.Len() + ns.fcast.Len()
		if ns.multi != nil {
			m.SeriesFloats += ns.multi.Total()
		}
	}
	for _, r := range a.refActual {
		m.RefSeriesFloats += r.Len()
	}
	// prevA/cumA/ewmaA bookkeeping: 3 floats per node.
	m.AuxFloats = 3 * a.tree.Len()
	return m
}
