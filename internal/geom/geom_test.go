package geom

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Pt2(0, 1, 1), Pt2(1, 2, 2), true},
		{Pt2(0, 1, 1), Pt2(1, 1, 2), true},
		{Pt2(0, 1, 1), Pt2(1, 1, 1), false}, // equal never dominates
		{Pt2(0, 2, 1), Pt2(1, 1, 2), false}, // incomparable
		{Pt2(0, 2, 2), Pt2(1, 1, 1), false},
		{Pt(0, 1, 2, 3), Pt(1, 1, 2, 4), true},
		{Pt(0, 1, 2, 3), Pt2(1, 1, 2), false}, // mixed dims
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesIrreflexiveAntisymmetric(t *testing.T) {
	err := quick.Check(func(ax, ay, bx, by float64) bool {
		a, b := Pt2(0, ax, ay), Pt2(1, bx, by)
		if Dominates(a, a) {
			return false
		}
		return !(Dominates(a, b) && Dominates(b, a))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDominatesTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := Pt2(0, rng.Float64(), rng.Float64())
		b := Pt2(1, rng.Float64(), rng.Float64())
		c := Pt2(2, rng.Float64(), rng.Float64())
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

func TestDynDominatesMatchesMappedDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a := Pt2(0, rng.Float64()*100, rng.Float64()*100)
		b := Pt2(1, rng.Float64()*100, rng.Float64()*100)
		q := Pt2(-1, rng.Float64()*100, rng.Float64()*100)
		want := Dominates(MapToQuery(a, q), MapToQuery(b, q))
		if got := DynDominates(a, b, q); got != want {
			t.Fatalf("DynDominates(%v,%v,%v)=%v, mapped says %v", a, b, q, got, want)
		}
	}
}

func TestMapToQuery(t *testing.T) {
	// The paper's running example: q=(10,80), t_i[j] = |p_i[j]-q[j]| (+q[j] in
	// the figure, which is a pure translation; dominance is unaffected).
	q := Pt2(-1, 10, 80)
	p := Pt2(6, 4, 90)
	got := MapToQuery(p, q)
	if got.Coords[0] != 6 || got.Coords[1] != 10 {
		t.Fatalf("MapToQuery = %v, want (6,10)", got)
	}
}

func TestQuadrantOf(t *testing.T) {
	q := Pt2(-1, 10, 10)
	cases := []struct {
		p    Point
		want int
	}{
		{Pt2(0, 15, 15), 0}, // first quadrant
		{Pt2(1, 5, 15), 1},  // x below q
		{Pt2(2, 15, 5), 2},  // y below q
		{Pt2(3, 5, 5), 3},
		{Pt2(4, 10, 10), 0}, // boundary goes to >= side
	}
	for _, c := range cases {
		if got := QuadrantOf(c.p, q); got != c.want {
			t.Errorf("QuadrantOf(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestRectContainsAndCenter(t *testing.T) {
	r := Rect{Lo: []float64{0, math.Inf(-1)}, Hi: []float64{2, 5}}
	if !r.Contains(Pt2(0, 1, 0)) {
		t.Error("expected contained")
	}
	if r.Contains(Pt2(0, 2, 0)) {
		t.Error("Hi bound is exclusive")
	}
	if r.Contains(Pt2(0, -0.1, 0)) {
		t.Error("Lo bound is inclusive-lower")
	}
	c := r.Center()
	if !r.Contains(c) {
		t.Errorf("center %v not inside %v", c, r)
	}
	inf := Rect{Lo: []float64{math.Inf(-1)}, Hi: []float64{math.Inf(1)}}
	if got := inf.Center().Coords[0]; got != 0 {
		t.Errorf("infinite rect center = %g, want 0", got)
	}
}

func TestCheckGeneralPosition(t *testing.T) {
	ok := []Point{Pt2(0, 1, 4), Pt2(1, 2, 5), Pt2(2, 3, 6)}
	if err := CheckGeneralPosition(ok); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	dup := []Point{Pt2(0, 1, 4), Pt2(1, 1, 5)}
	err := CheckGeneralPosition(dup)
	te, isTie := err.(*TieError)
	if !isTie {
		t.Fatalf("want *TieError, got %v", err)
	}
	if te.Axis != 0 || te.Value != 1 {
		t.Errorf("TieError = %+v", te)
	}
	if err := CheckGeneralPosition(nil); err != nil {
		t.Errorf("empty dataset must pass: %v", err)
	}
	mixed := []Point{Pt2(0, 1, 2), Pt(1, 3, 4, 5)}
	if err := CheckGeneralPosition(mixed); err == nil {
		t.Error("mixed dimensions must fail")
	}
}

func TestSortedAxisDedup(t *testing.T) {
	pts := []Point{Pt2(0, 3, 1), Pt2(1, 1, 1), Pt2(2, 3, 2)}
	xs := SortedAxis(pts, 0)
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 3 {
		t.Fatalf("SortedAxis = %v", xs)
	}
}

func TestEqualIDSets(t *testing.T) {
	if !EqualIDSets([]int{3, 1, 2}, []int{2, 3, 1}) {
		t.Error("sets should match")
	}
	if EqualIDSets([]int{1, 2}, []int{1, 2, 2}) {
		t.Error("length mismatch should fail")
	}
	if EqualIDSets([]int{1, 1, 2}, []int{1, 2, 2}) {
		t.Error("multiset mismatch should fail")
	}
	a := []int{3, 1}
	EqualIDSets(a, []int{1, 3})
	if a[0] != 3 {
		t.Error("EqualIDSets must not mutate arguments")
	}
}

func TestReflect(t *testing.T) {
	pts := []Point{Pt2(0, 1, 2)}
	rx := Reflect(pts, 1)
	if rx[0].Coords[0] != -1 || rx[0].Coords[1] != 2 {
		t.Errorf("Reflect mask=1: %v", rx[0])
	}
	rxy := Reflect(pts, 3)
	if rxy[0].Coords[0] != -1 || rxy[0].Coords[1] != -2 {
		t.Errorf("Reflect mask=3: %v", rxy[0])
	}
	if pts[0].Coords[0] != 1 {
		t.Error("Reflect must not mutate input")
	}
	// Reflecting twice is the identity.
	back := Reflect(rxy, 3)
	if back[0].Coords[0] != 1 || back[0].Coords[1] != 2 {
		t.Errorf("double reflect: %v", back[0])
	}
}

func TestReflectQuadrantMapping(t *testing.T) {
	// Reflecting by mask m must map quadrant m (relative to q) onto quadrant 0
	// (relative to reflected q).
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		p := Pt2(0, rng.Float64()*10, rng.Float64()*10)
		q := Pt2(-1, rng.Float64()*10, rng.Float64()*10)
		m := QuadrantOf(p, q)
		rp := Reflect([]Point{p}, m)[0]
		rq := Reflect([]Point{q}, m)[0]
		// Boundary points (shared coordinate) may flip sides under reflection;
		// skip them, interior behaviour is what matters.
		if p.X() == q.X() || p.Y() == q.Y() {
			continue
		}
		if got := QuadrantOf(rp, rq); got != 0 {
			t.Fatalf("p=%v q=%v m=%d: reflected quadrant=%d", p, q, m, got)
		}
	}
}

func TestPointHelpers(t *testing.T) {
	p := Pt(3, 1, 2)
	c := p.Clone()
	c.Coords[0] = 99
	if p.Coords[0] != 1 {
		t.Fatal("Clone must deep-copy coordinates")
	}
	if got := p.String(); got != "p3[1 2]" {
		t.Fatalf("String = %q", got)
	}
	if p.Dim() != 2 || p.X() != 1 || p.Y() != 2 {
		t.Fatal("accessors broken")
	}
}

func TestDominatesCoords(t *testing.T) {
	if !DominatesCoords([]float64{1, 1}, []float64{2, 2}) {
		t.Fatal("should dominate")
	}
	if DominatesCoords([]float64{1, 1}, []float64{1, 1}) {
		t.Fatal("equal never dominates")
	}
	if DominatesCoords([]float64{1}, []float64{1, 2}) {
		t.Fatal("mixed dims never dominate")
	}
	if DominatesCoords([]float64{3, 1}, []float64{2, 2}) {
		t.Fatal("incomparable")
	}
}

func TestDynDominatesMixedDims(t *testing.T) {
	if DynDominates(Pt(0, 1, 2, 3), Pt2(1, 1, 2), Pt2(-1, 0, 0)) {
		t.Fatal("mixed dims never dynamically dominate")
	}
}

func TestTieErrorMessage(t *testing.T) {
	e := &TieError{Axis: 1, Value: 7, IDs: []int{2, 5}}
	msg := e.Error()
	if msg == "" || !strings.Contains(msg, "axis 1") || !strings.Contains(msg, "7") {
		t.Fatalf("unhelpful error: %q", msg)
	}
}

func TestIDsAndSortIDs(t *testing.T) {
	pts := []Point{Pt2(5, 0, 0), Pt2(2, 1, 1)}
	ids := IDs(pts)
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 2 {
		t.Fatalf("IDs = %v", ids)
	}
	if got := SortIDs(ids); got[0] != 2 || got[1] != 5 {
		t.Fatalf("SortIDs = %v", got)
	}
}

func TestRectContainsDimMismatch(t *testing.T) {
	r := Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	if r.Contains(Pt(-1, 0.5)) {
		t.Fatal("dimension mismatch must not be contained")
	}
}

// TestByIDAndSearchID: ByID returns an id-ordered slice itself and sorts a
// copy of any other, leaving the input alone; SearchID finds every present
// id and places every absent one where it would go.
func TestByIDAndSearchID(t *testing.T) {
	ordered := []Point{Pt2(-4, 0, 0), Pt2(2, 1, 1), Pt2(5, 2, 2), Pt2(9, 3, 3)}
	if got := ByID(ordered); &got[0] != &ordered[0] {
		t.Fatal("ByID copied an ordered slice")
	}
	shuffled := []Point{ordered[2], ordered[0], ordered[3], ordered[1]}
	got := ByID(shuffled)
	for i, p := range got {
		if p.ID != ordered[i].ID {
			t.Fatalf("ByID = %v, want %v", IDs(got), IDs(ordered))
		}
	}
	if shuffled[0].ID != 5 {
		t.Fatal("ByID reordered its input")
	}
	for _, c := range []struct{ id, pos int }{{-4, 0}, {2, 1}, {5, 2}, {9, 3}} {
		if k, ok := SearchID(ordered, c.id); k != c.pos || !ok {
			t.Fatalf("SearchID(%d) = %d, %v; want %d, true", c.id, k, ok, c.pos)
		}
	}
	for _, c := range []struct{ id, pos int }{{-5, 0}, {0, 1}, {3, 2}, {7, 3}, {10, 4}} {
		if k, ok := SearchID(ordered, c.id); k != c.pos || ok {
			t.Fatalf("SearchID(%d) = %d, %v; want %d, false", c.id, k, ok, c.pos)
		}
	}
	if k, ok := SearchID(nil, 1); k != 0 || ok {
		t.Fatalf("SearchID on no points = %d, %v", k, ok)
	}
}
