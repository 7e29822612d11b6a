// Package shhh implements Definitions 1 and 2 of the paper: the
// Hierarchical Heavy Hitter (HHH) set and the Succinct Hierarchical
// Heavy Hitter (SHHH) set, together with the modified-weight
// computation that SHHH is defined over.
//
// This package is the *reference* (offline, single-timeunit)
// implementation: a plain bottom-up traversal that is provably correct
// by construction. The strawman STA engine uses it directly; the
// adaptive ADA engine (package algo) must agree with it — Lemma 1 of
// the paper, which the test suite checks as a property.
package shhh

import (
	"fmt"
	"slices"

	"tiresias/internal/hierarchy"
)

// Counts holds per-category direct counts for one timeunit, keyed by
// category Key. In the paper's model only leaf categories receive
// direct counts, but interior keys are accepted too (they behave like
// an implicit extra child).
type Counts map[hierarchy.Key]float64

// Total returns the sum of all direct counts.
func (c Counts) Total() float64 {
	var s float64
	for _, v := range c {
		s += v
	}
	return s
}

// Unit is the compact retained form of one timeunit: the touched node
// IDs in ascending order next to their direct counts. It holds only
// the entries the timeunit touched — no index sized to the tree — so
// a window of retained units costs O(touched) per unit. It is what
// STA's window, a warming detector's buffer, engine Init, and the
// checkpoint carry, and what the Into variants below read.
type Unit struct {
	// IDs lists the touched node IDs in ascending order.
	IDs []int32
	// Vals holds the direct count of each entry of IDs.
	Vals []float64
}

// Total returns the sum of all direct counts.
func (u Unit) Total() float64 {
	var s float64
	for _, v := range u.Vals {
		s += v
	}
	return s
}

// Clone returns a copy of u that shares no arrays with it.
func (u Unit) Clone() Unit {
	return Unit{IDs: slices.Clone(u.IDs), Vals: slices.Clone(u.Vals)}
}

// Validate rejects a unit whose arrays differ in length or whose IDs
// fall outside a tree of n nodes: the checks a unit decoded from disk
// needs before any Into variant indexes by its IDs.
func (u Unit) Validate(n int) error {
	if len(u.IDs) != len(u.Vals) {
		return fmt.Errorf("unit has %d IDs, %d values", len(u.IDs), len(u.Vals))
	}
	for _, id := range u.IDs {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("unit references node %d outside hierarchy of %d nodes", id, n)
		}
	}
	return nil
}

// unitOf resolves map-form counts through the tree into a Unit for
// the map-form reference entry points; keys missing from the tree are
// ignored.
func unitOf(t *hierarchy.Tree, counts Counts) Unit {
	var u Unit
	for k := range counts {
		if n := t.Lookup(k); n != nil {
			u.IDs = append(u.IDs, int32(n.ID))
		}
	}
	slices.Sort(u.IDs)
	for _, id := range u.IDs {
		u.Vals = append(u.Vals, counts[t.Node(int(id)).Key])
	}
	return u
}

// Result is the outcome of an SHHH computation over one timeunit.
type Result struct {
	// Theta is the heavy-hitter threshold used.
	Theta float64
	// A holds the raw aggregated weight An per node ID: the node's
	// direct count plus the sum over all descendants (Definition 1).
	A []float64
	// W holds the modified weight Wn per node ID: the direct count
	// plus the sum of W over children that are not themselves SHHH
	// members (Definition 2).
	W []float64
	// InSet[id] reports whether the node is in the SHHH set.
	InSet []bool
	// Set lists the SHHH members in bottom-up discovery order.
	Set []*hierarchy.Node
}

// IsHH reports SHHH membership for a node.
func (r *Result) IsHH(n *hierarchy.Node) bool {
	return n.ID < len(r.InSet) && r.InSet[n.ID]
}

// Compute derives the SHHH set for one timeunit by a bottom-up
// traversal (the paper notes this yields the unique fixed point of
// Definition 2). Nodes must already exist in the tree for every key in
// counts; use Tree.InsertKey beforehand.
func Compute(t *hierarchy.Tree, counts Counts, theta float64) *Result {
	return ComputeInto(t, unitOf(t, counts), theta, nil)
}

// ComputeInto is Compute over a compact unit whose IDs belong to t,
// reusing r's slices as scratch (r may be nil, which allocates a fresh
// Result). Repeated calls with the same Result and a stable tree are
// allocation-free; the previous contents of r are overwritten.
//
//tiresias:hotpath
func ComputeInto(t *hierarchy.Tree, u Unit, theta float64, r *Result) *Result {
	if r == nil {
		r = &Result{} //tiresias:ignore hotpath escapecheck (nil-r convenience path; steady-state callers pass a reused Result)
	}
	n := t.Len()
	r.Theta = theta
	r.A = growFloats(r.A, n)        //tiresias:ignore escapecheck (inlined grow path: allocates only when the tree outgrows r's scratch)
	r.W = growFloats(r.W, n)        //tiresias:ignore escapecheck (inlined grow path: allocates only when the tree outgrows r's scratch)
	r.InSet = growBools(r.InSet, n) //tiresias:ignore escapecheck (inlined grow path: allocates only when the tree outgrows r's scratch)
	r.Set = r.Set[:0]
	for i, id := range u.IDs {
		r.A[id] += u.Vals[i]
		r.W[id] += u.Vals[i]
	}
	// Closure-free bottom-up sweep over the flat CSR view.
	csr := t.CSR()
	for _, id32 := range csr.BottomUp {
		id := int(id32)
		aw, w := r.A[id], r.W[id]
		for j := csr.ChildOff[id]; j < csr.ChildOff[id+1]; j++ {
			c := csr.ChildIDs[j]
			aw += r.A[c]
			if !r.InSet[c] {
				w += r.W[c]
			}
		}
		r.A[id], r.W[id] = aw, w
		if w >= theta {
			r.InSet[id] = true
			r.Set = append(r.Set, t.Node(id))
		}
	}
	return r
}

// growFloats returns a zeroed slice of length n, reusing s's backing
// array when possible.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growBools returns a cleared slice of length n, reusing s's backing
// array when possible.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// ComputeHHH derives the plain (non-succinct) HHH set of Definition 1:
// all nodes whose raw aggregated weight is at least theta.
func ComputeHHH(t *hierarchy.Tree, counts Counts, theta float64) []*hierarchy.Node {
	agg := Aggregate(t, counts)
	var set []*hierarchy.Node
	t.WalkBottomUp(func(n *hierarchy.Node) {
		if agg[n.ID] >= theta {
			set = append(set, n)
		}
	})
	return set
}

// Aggregate computes the raw weight An for every node: direct count
// plus descendant counts.
func Aggregate(t *hierarchy.Tree, counts Counts) []float64 {
	return AggregateInto(t, unitOf(t, counts), nil)
}

// AggregateInto is Aggregate over a compact unit, writing into dst and
// reusing its backing array when it is large enough.
//
//tiresias:hotpath
func AggregateInto(t *hierarchy.Tree, u Unit, dst []float64) []float64 {
	a := growFloats(dst, t.Len()) //tiresias:ignore escapecheck (inlined grow path: allocates only when the tree outgrows dst)
	for i, id := range u.IDs {
		a[id] += u.Vals[i]
	}
	csr := t.CSR()
	for _, id32 := range csr.BottomUp {
		id := int(id32)
		sum := a[id]
		for j := csr.ChildOff[id]; j < csr.ChildOff[id+1]; j++ {
			sum += a[csr.ChildIDs[j]]
		}
		a[id] = sum
	}
	return a
}

// FrozenWeights computes, for a single timeunit, the modified weight of
// every node given a *frozen* SHHH membership (from some other
// timeunit). This realizes Definition 3: the time series of a heavy
// hitter at historical timeunit t is its weight after discounting the
// weights of descendants that are frozen members. inSet is indexed by
// node ID and may be shorter than the tree (new nodes default to not
// in the set).
func FrozenWeights(t *hierarchy.Tree, counts Counts, inSet []bool) []float64 {
	return FrozenWeightsInto(t, unitOf(t, counts), inSet, nil)
}

// FrozenWeightsInto is FrozenWeights over a compact unit, writing into
// dst and reusing its backing array when it is large enough. STA calls
// this once per retained timeunit per instance, so scratch reuse
// removes its dominant allocation source.
//
//tiresias:hotpath
func FrozenWeightsInto(t *hierarchy.Tree, u Unit, inSet []bool, dst []float64) []float64 {
	w := growFloats(dst, t.Len()) //tiresias:ignore escapecheck (inlined grow path: allocates only when the tree outgrows dst)
	for i, id := range u.IDs {
		w[id] += u.Vals[i]
	}
	csr := t.CSR()
	for _, id32 := range csr.BottomUp {
		id := int(id32)
		sum := w[id]
		for j := csr.ChildOff[id]; j < csr.ChildOff[id+1]; j++ {
			c := int(csr.ChildIDs[j])
			if c >= len(inSet) || !inSet[c] {
				sum += w[c]
			}
		}
		w[id] = sum
	}
	return w
}
