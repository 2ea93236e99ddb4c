package client

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// decodeResult decodes a /v1/skyline answer by hand. It takes exactly the
// shape the server writes (internal/server's appendSkylineResponse),
//
//	{"kind":"K","query":[F,...],"ids":[I,...],"points":[{"id":I,"coords":[F,...]},...]}
//
// with no whitespace inside and any after, and refuses anything else: there
// is no fallback. The kind is printable ASCII without escapes, numbers
// follow JSON's grammar, and each is parsed as encoding/json parses it into
// its field, so an answer this accepts decodes as json.Unmarshal decodes it.
// Nothing in the result aliases data: the query and every point's
// coordinates share one new backing array.
func decodeResult(data []byte) (Result, error) {
	s := scanner{b: data}
	var r Result
	if !s.lit(`{"kind":"`) {
		return Result{}, s.fail()
	}
	start := s.i
	for s.i < len(data) && data[s.i] != '"' {
		if c := data[s.i]; c < 0x20 || c > 0x7e || c == '\\' {
			return Result{}, s.fail()
		}
		s.i++
	}
	kind := data[start:s.i]
	if !s.lit(`","query":`) {
		return Result{}, s.fail()
	}
	var room [4]float64
	q := room[:0]
	if !s.array(func() bool {
		f, ok := s.float()
		q = append(q, f)
		return ok
	}) || !s.lit(`,"ids":`) {
		return Result{}, s.fail()
	}
	// A well-formed id list holds one id more than it has commas.
	n := 1
	if end := bytes.IndexByte(data[s.i:], ']'); end > 0 {
		n += bytes.Count(data[s.i:s.i+end], []byte{','})
	}
	r.IDs = make([]int32, 0, n)
	if !s.array(func() bool {
		id, ok := s.int(32)
		r.IDs = append(r.IDs, int32(id))
		return ok
	}) || !s.lit(`,"points":`) {
		return Result{}, s.fail()
	}
	// Coordinates are appended to one array, two per point expected; a
	// point's Coords only keeps its count until the array stops growing.
	all := append(make([]float64, 0, len(q)+2*len(r.IDs)), q...)
	r.Points = make([]Point, 0, len(r.IDs))
	if !s.array(func() bool {
		if !s.lit(`{"id":`) {
			return false
		}
		id, ok := s.int(strconv.IntSize)
		if !ok || !s.lit(`,"coords":`) {
			return false
		}
		from := len(all)
		if !s.array(func() bool {
			f, ok := s.float()
			all = append(all, f)
			return ok
		}) {
			return false
		}
		r.Points = append(r.Points, Point{ID: int(id), Coords: all[from:]})
		return s.lit("}")
	}) || !s.lit("}") {
		return Result{}, s.fail()
	}
	for ; s.i < len(data); s.i++ {
		if c := data[s.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return Result{}, s.fail()
		}
	}
	r.Kind = kindName(kind)
	r.Query = all[:len(q):len(q)]
	off := len(q)
	for i := range r.Points {
		k := len(r.Points[i].Coords)
		r.Points[i].Coords = all[off : off+k : off+k]
		off += k
	}
	return r, nil
}

// kindName returns the kind as a string, without allocating for the three
// the server names.
func kindName(b []byte) string {
	switch string(b) {
	case "quadrant":
		return "quadrant"
	case "global":
		return "global"
	case "dynamic":
		return "dynamic"
	}
	return string(b)
}

var errMalformed = errors.New("malformed skyline answer")

// scanner walks a skyline answer; i is the next byte.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) fail() error { return fmt.Errorf("%w at byte %d", errMalformed, s.i) }

// lit consumes l if the input continues with it.
func (s *scanner) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// array consumes a JSON array, calling elem to consume each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.lit("[") {
		return false
	}
	if s.lit("]") {
		return true
	}
	for elem() {
		if s.lit("]") {
			return true
		}
		if !s.lit(",") {
			return false
		}
	}
	return false
}

// number consumes a JSON number and returns its bytes; integer limits it to
// an optional minus and digits, the only numbers encoding/json decodes into
// an integer field.
func (s *scanner) number(integer bool) []byte {
	b, i := s.b, s.i
	digits := func() bool {
		n := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if !integer {
		if i < len(b) && b[i] == '.' {
			i++
			if !digits() {
				return nil
			}
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			i++
			if i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			if !digits() {
				return nil
			}
		}
	}
	num := b[s.i:i]
	s.i = i
	return num
}

func (s *scanner) float() (float64, bool) {
	num := s.number(false)
	if num == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

func (s *scanner) int(bits int) (int64, bool) {
	num := s.number(true)
	if num == nil {
		return 0, false
	}
	v, err := strconv.ParseInt(string(num), 10, bits)
	return v, err == nil
}
