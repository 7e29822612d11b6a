package algo

import (
	"slices"

	"tiresias/internal/hierarchy"
	"tiresias/internal/shhh"
)

// DenseUnit is the flat, ID-addressed form of a Timeunit: direct
// category counts keyed by dense node ID instead of string Key. It is
// the internal timeunit representation of the hot path — the windower
// fills one directly from interned record paths, and the engines read
// it back with O(1) per-ID lookups — so steady-state ingestion never
// joins or splits path strings and never walks a map.
//
// A DenseUnit records the touched IDs in insertion order next to their
// accumulated values, plus a sparse position index for accumulation;
// Reset clears only the touched entries, so reuse across timeunits
// costs O(touched), not O(|tree|). The zero value is ready to use.
type DenseUnit struct {
	ids  []int32
	vals []float64 // vals[i] is the count of ids[i]
	pos  []int32   // pos[id] = index+1 into ids/vals; 0 = absent
}

// Add accumulates v onto the node with the given dense ID.
//
//tiresias:hotpath
func (u *DenseUnit) Add(id int, v float64) {
	if id >= len(u.pos) {
		u.growPos(id + 1) //tiresias:ignore escapecheck (inlined grow path: allocates only when the ID space outgrows the index)
	}
	if p := u.pos[id]; p != 0 {
		u.vals[p-1] += v
		return
	}
	u.ids = append(u.ids, int32(id))
	u.vals = append(u.vals, v)
	u.pos[id] = int32(len(u.ids))
}

// growPos extends the sparse index to cover at least n IDs.
func (u *DenseUnit) growPos(n int) {
	if cap(u.pos) >= n {
		u.pos = u.pos[:n]
		return
	}
	grown := make([]int32, n, n+n/2+8)
	copy(grown, u.pos)
	u.pos = grown
}

// ValueAt returns the direct count of the node, 0 when untouched.
//
//tiresias:hotpath
func (u *DenseUnit) ValueAt(id int) float64 {
	if id >= len(u.pos) {
		return 0
	}
	if p := u.pos[id]; p != 0 {
		return u.vals[p-1]
	}
	return 0
}

// IDs returns the touched IDs in insertion order. The slice is shared
// with the unit; callers must not mutate or retain it past Reset.
func (u *DenseUnit) IDs() []int32 { return u.ids }

// Reset empties the unit for reuse, clearing only the touched entries
// of the sparse index.
func (u *DenseUnit) Reset() {
	for _, id := range u.ids {
		u.pos[id] = 0
	}
	u.ids = u.ids[:0]
	u.vals = u.vals[:0]
}

// Unit returns the compact retained form of the unit: its touched IDs
// in ascending order with their counts, in fresh arrays. It carries
// none of the sparse position index, so retaining it costs
// O(touched) whatever the largest touched ID.
func (u *DenseUnit) Unit() shhh.Unit {
	return u.appendUnit(shhh.Unit{})
}

// appendUnit writes the compact form of u into dst's arrays, reusing
// their capacity.
func (u *DenseUnit) appendUnit(dst shhh.Unit) shhh.Unit {
	dst.IDs = append(dst.IDs[:0], u.ids...)
	slices.Sort(dst.IDs)
	dst.Vals = dst.Vals[:0]
	for _, id := range dst.IDs {
		dst.Vals = append(dst.Vals, u.ValueAt(int(id)))
	}
	return dst
}

// Timeunit converts the unit to its map form, resolving IDs through
// the tree that interned them. Used where dense units leave for the
// public map-form API (Collect).
func (u *DenseUnit) Timeunit(t *hierarchy.Tree) Timeunit {
	out := make(Timeunit, len(u.ids))
	for i, id := range u.ids {
		out[t.Node(int(id)).Key] += u.vals[i]
	}
	return out
}

// Load is the map→dense adapter: it replaces u's contents with a
// map-form timeunit, interning unseen keys into t in sorted Key order
// (never in Go's randomized map order, so identical inputs always grow
// identical trees), and returns u.
func (u *DenseUnit) Load(t *hierarchy.Tree, counts Timeunit) *DenseUnit {
	u.Reset()
	keys := make([]hierarchy.Key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		u.Add(t.InsertKey(k).ID, counts[k])
	}
	return u
}

// Units converts map-form timeunits to compact units through Load, for
// Engine.Init.
func Units(t *hierarchy.Tree, units []Timeunit) []shhh.Unit {
	out := make([]shhh.Unit, len(units))
	var du DenseUnit
	for i, m := range units {
		out[i] = du.Load(t, m).Unit()
	}
	return out
}
