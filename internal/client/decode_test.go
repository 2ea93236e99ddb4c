package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/server"
)

// serverAnswers returns real /v1/skyline bodies over the hotels dataset:
// every kind at a few queries, (1e6, 1e6) among them, past every point,
// where the quadrant answer is empty.
func serverAnswers(tb testing.TB) [][]byte {
	tb.Helper()
	h, err := server.New(dataset.Hotels(), server.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	var out [][]byte
	for _, kind := range []string{"quadrant", "global", "dynamic"} {
		for _, q := range [][2]float64{{10, 80}, {0.5, 1e-7}, {1e6, 1e6}} {
			resp, err := http.Get(fmt.Sprintf("%s/v1/skyline?kind=%s&x=%s&y=%s", srv.URL, kind,
				url.QueryEscape(strconv.FormatFloat(q[0], 'g', -1, 64)),
				url.QueryEscape(strconv.FormatFloat(q[1], 'g', -1, 64))))
			if err != nil {
				tb.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				tb.Fatalf("%s at %v: %d %s %v", kind, q, resp.StatusCode, body, err)
			}
			out = append(out, body)
		}
	}
	return out
}

// wideAnswer is the server's answer shape for points of three coordinates,
// which the decoder takes like any other count.
const wideAnswer = `{"kind":"quadrant","query":[1.5,-2e-9],"ids":[4,-7],` +
	`"points":[{"id":4,"coords":[1,2,3]},{"id":-7,"coords":[-0,1e+300,2.5]}]}` + "\n"

// Anything but the answer shape is refused, including JSON that
// encoding/json would take.
func TestDecodeResultRefusesOtherShapes(t *testing.T) {
	for _, in := range []string{
		``,
		`null`,
		`{}`,
		`{"kind":"quadrant","query":[1,2],"ids":[],"points":[]}x`,
		`{"kind":"quadrant", "query":[1,2],"ids":[],"points":[]}`,
		`{"kind":"quadrant","query":[1,2],"ids":null,"points":[]}`,
		`{"kind":"quadrant","query":[1,2],"ids":[],"points":[],"extra":1}`,
		`{"query":[1,2],"kind":"quadrant","ids":[],"points":[]}`,
		`{"kind":"quad\u0072ant","query":[1,2],"ids":[],"points":[]}`,
		`{"kind":"quadrant","query":[01,2],"ids":[],"points":[]}`,
		`{"kind":"quadrant","query":[1.,2],"ids":[],"points":[]}`,
		`{"kind":"quadrant","query":[1e400,2],"ids":[],"points":[]}`,
		`{"kind":"quadrant","query":[1,2],"ids":[1.0],"points":[]}`,
		`{"kind":"quadrant","query":[1,2],"ids":[2147483648],"points":[]}`,
		`{"kind":"quadrant","query":[1,2],"ids":[1,],"points":[]}`,
		`{"kind":"quadrant","query":[1,2],"ids":[1],"points":[{"id":1,"coords":[1,2]},]}`,
		`{"kind":"quadrant","query":[1,2],"ids":[1],"points":[{"id":1,"coords":[1,2]}]`,
		`{"kind":"quadrant","query":[+1,2],"ids":[],"points":[]}`,
	} {
		if r, err := decodeResult([]byte(in)); err == nil {
			t.Errorf("decodeResult(%q) = %+v, want an error", in, r)
		}
	}
}

// decodeResult allocates the ids, the points and one array for every
// coordinate, and nothing else: not the kind, not the numbers' text.
func TestDecodeResultAllocations(t *testing.T) {
	body := serverAnswers(t)[3] // global at (10, 80): five points
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeResult(body); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Fatalf("decodeResult allocates %v times, want 3", n)
	}
}

// FuzzDecodeResult: the decoder never panics, and whatever it accepts
// decodes exactly as encoding/json decodes it, with the query and the
// coordinates back to back in one array and nothing kept of the input,
// which the client pools. The seeds are the server's answers for every
// kind, an empty one among them, and one with three coordinates a point.
func FuzzDecodeResult(f *testing.F) {
	for _, body := range serverAnswers(f) {
		f.Add(body)
	}
	f.Add([]byte(wideAnswer))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := slices.Clone(data)
		got, err := decodeResult(in)
		if err != nil {
			return
		}
		var want Result
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decodeResult accepted %q, which encoding/json refuses: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\ndecoded %+v\n   json %+v", data, got, want)
		}
		next := unsafe.Pointer(unsafe.SliceData(got.Query))
		for i := -1; i < len(got.Points); i++ {
			c := got.Query
			if i >= 0 {
				c = got.Points[i].Coords
			}
			if len(c) > 0 && unsafe.Pointer(&c[0]) != next {
				t.Fatalf("%q: the coordinates are not back to back in one array", data)
			}
			next = unsafe.Add(next, 8*len(c))
		}
		clear(in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: the decoded answer aliases its input", data)
		}
	})
}

// Skyline escapes its query: a kind holding query syntax arrives whole,
// and a coordinate whose %g form has an exponent's '+' arrives as that
// number, not with a space where the '+' was.
func TestSkylineEscapesQuery(t *testing.T) {
	var got url.Values
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Query()
		w.Write([]byte(wideAnswer))
	}))
	defer srv.Close()
	if _, err := New(srv.URL).Skyline(context.Background(), "a b&c=d", 1e6, -2.5e-7); err != nil {
		t.Fatal(err)
	}
	if got.Get("kind") != "a b&c=d" || got.Get("x") != "1e+06" || got.Get("y") != "-2.5e-07" {
		t.Fatalf("server read kind=%q x=%q y=%q", got.Get("kind"), got.Get("x"), got.Get("y"))
	}

	// Against the real server, a query past every point answers empty.
	c := newService(t)
	res, err := c.Skyline(context.Background(), "quadrant", 1e6, 1e6)
	if err != nil || len(res.IDs) != 0 {
		t.Fatalf("quadrant at (1e6, 1e6) = %+v, %v; want an empty answer", res, err)
	}
}
