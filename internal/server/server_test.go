package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func newTestServer(t *testing.T) (*httptest.Server, []geom.Point) {
	t.Helper()
	hotels := dataset.Hotels()
	h, err := New(hotels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, hotels
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndStats(t *testing.T) {
	srv, hotels := newTestServer(t)
	var health healthResponse
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz = %+v (code %d)", health, code)
	}
	if health.Epoch != 1 {
		t.Fatalf("fresh build should serve epoch 1, got %d", health.Epoch)
	}
	var stats statsResponse
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats code %d", code)
	}
	if stats.Points != len(hotels) || stats.Cells != 144 || !stats.DynamicEnabled {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSkylineEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		kind string
		want []int32
	}{
		{"quadrant", []int32{3, 8, 10}},
		{"global", []int32{3, 6, 8, 10, 11}},
		{"dynamic", []int32{6, 11}},
	}
	for _, c := range cases {
		var resp skylineResponse
		url := fmt.Sprintf("%s/v1/skyline?kind=%s&x=10&y=80", srv.URL, c.kind)
		if code := getJSON(t, url, &resp); code != 200 {
			t.Fatalf("%s: code %d", c.kind, code)
		}
		if len(resp.IDs) != len(c.want) {
			t.Fatalf("%s: ids %v, want %v", c.kind, resp.IDs, c.want)
		}
		for i := range c.want {
			if resp.IDs[i] != c.want[i] {
				t.Fatalf("%s: ids %v, want %v", c.kind, resp.IDs, c.want)
			}
		}
		if len(resp.Points) != len(resp.IDs) {
			t.Fatalf("%s: points and ids disagree", c.kind)
		}
	}
	// Default kind is quadrant.
	var resp skylineResponse
	if code := getJSON(t, srv.URL+"/v1/skyline?x=10&y=80", &resp); code != 200 || resp.Kind != "quadrant" {
		t.Fatalf("default kind: %d %v", code, resp.Kind)
	}
}

func TestErrorHandling(t *testing.T) {
	srv, _ := newTestServer(t)
	if code := getJSON(t, srv.URL+"/v1/skyline?x=abc&y=80", nil); code != http.StatusBadRequest {
		t.Fatalf("bad x: code %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/skyline?kind=nope&x=1&y=1", nil); code != http.StatusBadRequest {
		t.Fatalf("bad kind: code %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/nothing", nil); code != http.StatusNotFound {
		t.Fatalf("unknown path: code %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/skyline", nil); code != http.StatusBadRequest {
		t.Fatalf("missing coords: code %d", code)
	}
}

func TestDynamicDisabledOnLargeDatasets(t *testing.T) {
	pts, err := dataset.Generate(dataset.Config{N: 50, Dim: 2, Dist: dataset.Independent, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(pts, Config{MaxDynamicPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if code := getJSON(t, srv.URL+"/v1/skyline?kind=dynamic&x=0.5&y=0.5", nil); code != http.StatusNotImplemented {
		t.Fatalf("disabled dynamic: code %d", code)
	}
	var stats statsResponse
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if stats.DynamicEnabled {
		t.Fatal("dynamic should be disabled")
	}
}

func TestLiveUpdates(t *testing.T) {
	srv, _ := newTestServer(t)

	// Insert a hotel that changes the running-example answer.
	body := strings.NewReader(`{"id":99,"coords":[13,85]}`)
	resp, err := http.Post(srv.URL+"/v1/points", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert code %d", resp.StatusCode)
	}
	var sky skylineResponse
	if code := getJSON(t, srv.URL+"/v1/skyline?x=10&y=80", &sky); code != 200 {
		t.Fatalf("query after insert: %d", code)
	}
	if len(sky.IDs) != 2 || sky.IDs[0] != 8 || sky.IDs[1] != 99 {
		t.Fatalf("after insert ids = %v, want [8 99]", sky.IDs)
	}

	// Duplicate id conflicts.
	resp, err = http.Post(srv.URL+"/v1/points", "application/json",
		strings.NewReader(`{"id":99,"coords":[1,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate insert code %d", resp.StatusCode)
	}

	// Delete restores the original answer.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/points/99", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete code %d", resp.StatusCode)
	}
	if code := getJSON(t, srv.URL+"/v1/skyline?x=10&y=80", &sky); code != 200 {
		t.Fatalf("query after delete: %d", code)
	}
	if len(sky.IDs) != 3 {
		t.Fatalf("after delete ids = %v, want the original 3", sky.IDs)
	}

	// Bad requests.
	resp, _ = http.Post(srv.URL+"/v1/points", "application/json", strings.NewReader(`{"id":1,"coords":[1]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1-D insert code %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/v1/points", "application/json", strings.NewReader(`garbage`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage insert code %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/points/4242", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing delete code %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/points/abc", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric delete code %d", resp.StatusCode)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	srv, _ := newTestServer(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers hammer queries while a writer inserts and deletes.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/v1/skyline?x=10&y=80")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("reader got %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for k := 0; k < 10; k++ {
		body := fmt.Sprintf(`{"id":%d,"coords":[%d.5,%d.5]}`, 1000+k, 5+k, 60+k)
		resp, err := http.Post(srv.URL+"/v1/points", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/points/%d", srv.URL, 1000+k), nil)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	close(stop)
	wg.Wait()
}

// TestInsertRejectsIDOutsideInt32 posts a point whose id, 4294967301, wraps
// to 5 in the int32 ids every diagram stores: accepted, it would alias the
// hotel with id 5. The insert must be refused with 400 before it is queued,
// and answers must stay as they were.
func TestInsertRejectsIDOutsideInt32(t *testing.T) {
	srv, hotels := newTestServer(t)
	var before, after skylineResponse
	if code := getJSON(t, srv.URL+"/v1/skyline?x=9&y=9", &before); code != 200 {
		t.Fatalf("query code %d", code)
	}
	resp, err := http.Post(srv.URL+"/v1/points", "application/json",
		strings.NewReader(`{"id":4294967301,"coords":[10,10]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("insert of id 4294967301: code %d, want 400", resp.StatusCode)
	}
	var stats statsResponse
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 || stats.Points != len(hotels) {
		t.Fatalf("after the refused insert: stats code %d, %d points, want %d", code, stats.Points, len(hotels))
	}
	if code := getJSON(t, srv.URL+"/v1/skyline?x=9&y=9", &after); code != 200 {
		t.Fatalf("query code %d", code)
	}
	if fmt.Sprint(after.IDs) != fmt.Sprint(before.IDs) {
		t.Fatalf("answer at (9,9) changed from %v to %v", before.IDs, after.IDs)
	}
}

// skylineParams reads kind, x and y from a raw query exactly as url.Values'
// Get does after r.URL.Query(): the first good value of a key wins, pairs
// with a ';' or a bad escape are skipped, and keys and values are
// unescaped. Pinned on hand-picked queries and on random ones built from
// the pieces that matter.
func TestSkylineParamsMatchURLValues(t *testing.T) {
	queries := []string{
		"",
		"kind=global&x=1&y=2",
		"x=1&x=2&y=3&y=&kind=dynamic&kind=quadrant",
		"x=1;y=2&y=3",
		"x=%zz&x=4&y=5",
		"ki%6Ed=global&%78=1e%2B06&y=+2",
		"kind&x=&y",
		"&&x=1&&y=2&",
		"kind=a+b%26c&x=1&y=2&sky_span=7",
	}
	pieces := []string{"kind", "x", "y", "k", "=", "&", ";", "%", "%2", "%78", "%zz", "+", "1", "-2.5", "global", "%3D"}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := rnd.Intn(12); n > 0; n-- {
			b.WriteString(pieces[rnd.Intn(len(pieces))])
		}
		queries = append(queries, b.String())
	}
	for _, raw := range queries {
		v, _ := url.ParseQuery(raw)
		kind, x, y := skylineParams(raw)
		if kind != v.Get("kind") || x != v.Get("x") || y != v.Get("y") {
			t.Fatalf("%q: kind=%q x=%q y=%q, url.Values says %q %q %q",
				raw, kind, x, y, v.Get("kind"), v.Get("x"), v.Get("y"))
		}
	}
}
