// Package geom provides the geometric primitives shared by every other
// package in this repository: points in two and higher dimensions, dominance
// predicates under the minimisation convention of the paper (Definition 1),
// axis-aligned rectangles, and general-position checks.
//
// Dominance convention: p dominates p' ("p ⪯ p'") iff p[i] <= p'[i] for every
// dimension i and p[i] < p'[i] for at least one. Smaller is better on every
// axis. The traditional skyline is the set of non-dominated points.
package geom

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Point is a point in d-dimensional space with a stable identifier.
// ID is the index of the point in its dataset; algorithms use it to compare
// skyline result sets cheaply and deterministically.
type Point struct {
	ID     int
	Coords []float64
}

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p.Coords) }

// X returns the first coordinate. It panics on zero-dimensional points,
// which never occur in valid datasets.
func (p Point) X() float64 { return p.Coords[0] }

// Y returns the second coordinate.
func (p Point) Y() float64 { return p.Coords[1] }

// Clone returns a deep copy of the point.
func (p Point) Clone() Point {
	c := make([]float64, len(p.Coords))
	copy(c, p.Coords)
	return Point{ID: p.ID, Coords: c}
}

// String renders the point as "p<ID>(x, y, ...)".
func (p Point) String() string {
	return fmt.Sprintf("p%d%v", p.ID, p.Coords)
}

// Pt2 constructs a two-dimensional point.
func Pt2(id int, x, y float64) Point {
	return Point{ID: id, Coords: []float64{x, y}}
}

// Pt constructs a point of arbitrary dimension.
func Pt(id int, coords ...float64) Point {
	return Point{ID: id, Coords: coords}
}

// Dominates reports whether a dominates b under minimisation: a is no worse
// in every dimension and strictly better in at least one. Points of unequal
// dimension never dominate each other.
func Dominates(a, b Point) bool {
	if len(a.Coords) != len(b.Coords) {
		return false
	}
	strict := false
	for i, av := range a.Coords {
		bv := b.Coords[i]
		if av > bv {
			return false
		}
		if av < bv {
			strict = true
		}
	}
	return strict
}

// DominatesCoords is Dominates on raw coordinate slices.
func DominatesCoords(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for i, av := range a {
		if av > b[i] {
			return false
		}
		if av < b[i] {
			strict = true
		}
	}
	return strict
}

// DynDominates reports whether a dynamically dominates b with respect to the
// query point q (Definition 2): |a[i]-q[i]| <= |b[i]-q[i]| for all i, strict
// for at least one.
func DynDominates(a, b, q Point) bool {
	if len(a.Coords) != len(b.Coords) || len(a.Coords) != len(q.Coords) {
		return false
	}
	strict := false
	for i := range a.Coords {
		da := math.Abs(a.Coords[i] - q.Coords[i])
		db := math.Abs(b.Coords[i] - q.Coords[i])
		if da > db {
			return false
		}
		if da < db {
			strict = true
		}
	}
	return strict
}

// MapToQuery maps p to the first quadrant of query q: t[i] = |p[i] - q[i]|.
// This is the transformation under which a dynamic skyline query becomes a
// traditional skyline computation (Section III of the paper).
func MapToQuery(p, q Point) Point {
	t := make([]float64, len(p.Coords))
	for i := range t {
		t[i] = math.Abs(p.Coords[i] - q.Coords[i])
	}
	return Point{ID: p.ID, Coords: t}
}

// QuadrantOf returns the quadrant index of p relative to q, a bitmask with
// bit i set when p[i] < q[i]. Quadrant 0 is the first orthant (all
// coordinates >= q's). Points sharing a coordinate with q are assigned to the
// side that contains the closed boundary (>=).
func QuadrantOf(p, q Point) int {
	mask := 0
	for i := range p.Coords {
		if p.Coords[i] < q.Coords[i] {
			mask |= 1 << i
		}
	}
	return mask
}

// Rect is an axis-aligned rectangle [Lo, Hi) used to describe cells.
// Infinite extents are expressed with ±Inf.
type Rect struct {
	Lo, Hi []float64
}

// Contains reports whether q lies in the half-open rectangle.
func (r Rect) Contains(q Point) bool {
	if len(q.Coords) != len(r.Lo) {
		return false
	}
	for i := range r.Lo {
		if q.Coords[i] < r.Lo[i] || q.Coords[i] >= r.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the midpoint of the rectangle. Infinite bounds are clamped
// one unit beyond the finite side so the centre is always finite and interior.
func (r Rect) Center() Point {
	c := make([]float64, len(r.Lo))
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			c[i] = 0
		case math.IsInf(lo, -1):
			c[i] = hi - 1
		case math.IsInf(hi, 1):
			c[i] = lo + 1
		default:
			c[i] = (lo + hi) / 2
		}
	}
	return Point{ID: -1, Coords: c}
}

// TieError reports duplicate coordinate values on one axis. The optimized
// diagram algorithms (DSG, scanning, sweeping) require general position —
// distinct values per axis — exactly as the paper assumes. Callers can
// repair datasets with dataset.GeneralPosition.
type TieError struct {
	Axis  int
	Value float64
	IDs   []int
}

func (e *TieError) Error() string {
	return fmt.Sprintf("geom: points %v share value %g on axis %d; general position required (see dataset.GeneralPosition)", e.IDs, e.Value, e.Axis)
}

// CheckGeneralPosition verifies that no two points share a coordinate value
// on any axis and that all points have the same dimension d >= 1. It returns
// a *TieError describing the first violation found.
func CheckGeneralPosition(pts []Point) error {
	if len(pts) == 0 {
		return nil
	}
	d := pts[0].Dim()
	if d == 0 {
		return fmt.Errorf("geom: zero-dimensional point p%d", pts[0].ID)
	}
	for _, p := range pts {
		if p.Dim() != d {
			return fmt.Errorf("geom: mixed dimensions: p%d has %d, expected %d", p.ID, p.Dim(), d)
		}
	}
	type kv struct {
		v  float64
		id int
	}
	for axis := 0; axis < d; axis++ {
		vals := make([]kv, len(pts))
		for i, p := range pts {
			vals[i] = kv{p.Coords[axis], p.ID}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
		for i := 1; i < len(vals); i++ {
			if vals[i].v == vals[i-1].v {
				return &TieError{Axis: axis, Value: vals[i].v, IDs: []int{vals[i-1].id, vals[i].id}}
			}
		}
	}
	return nil
}

// SortedAxis returns the sorted values of the given axis across pts,
// de-duplicated.
func SortedAxis(pts []Point, axis int) []float64 {
	vals := make([]float64, 0, len(pts))
	for _, p := range pts {
		vals = append(vals, p.Coords[axis])
	}
	sort.Float64s(vals)
	return dedupFloats(vals)
}

func dedupFloats(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// ByID returns pts in ascending id order: pts itself when its ids already
// ascend, otherwise a sorted copy. The diagrams, the snapshot states and
// the store all keep points in this order, so an id is found by SearchID
// instead of through a map.
func ByID(pts []Point) []Point {
	if slices.IsSortedFunc(pts, cmpID) {
		return pts
	}
	out := slices.Clone(pts)
	slices.SortFunc(out, cmpID)
	return out
}

func cmpID(a, b Point) int { return cmp.Compare(a.ID, b.ID) }

// SearchID returns the position of id in pts, whose ids ascend, and whether
// a point there has it; when none does, the position is where a point of
// that id would go. A binary search without sort.Search's closure call per
// probe.
func SearchID(pts []Point, id int) (int, bool) {
	lo, hi := 0, len(pts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pts[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(pts) && pts[lo].ID == id
}

// IDs extracts the identifiers of pts in order.
func IDs(pts []Point) []int {
	ids := make([]int, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	return ids
}

// SortIDs sorts an id slice in place and returns it, for canonical result
// comparison.
func SortIDs(ids []int) []int {
	sort.Ints(ids)
	return ids
}

// EqualIDSets reports whether two id slices contain the same multiset of ids,
// ignoring order. It does not modify its arguments.
func EqualIDSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ac := append([]int(nil), a...)
	bc := append([]int(nil), b...)
	sort.Ints(ac)
	sort.Ints(bc)
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

// Reflect returns a copy of pts, in pts's order, with the coordinates of the
// axes selected by mask negated (bit i set negates axis i). Reflection maps
// quadrant `mask` onto the first quadrant, which is how the global skyline
// diagram reuses the quadrant algorithms (Section IV).
func Reflect(pts []Point, mask int) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		c := make([]float64, len(p.Coords))
		for j, v := range p.Coords {
			if mask&(1<<j) != 0 {
				c[j] = -v
			} else {
				c[j] = v
			}
		}
		out[i] = Point{ID: p.ID, Coords: c}
	}
	return out
}
