package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/matrix"
)

// referenceDistBody is the GET dist encoding distBody replaced: one *int64
// per cell in a map[string]any, encoded by encoding/json. distBody must
// reproduce its bytes exactly.
func referenceDistBody(id string, cached bool, d *matrix.Matrix, src, dst int) []byte {
	n := d.N()
	out := map[string]any{"id": id, "n": n, "cached": cached}
	switch {
	case dst >= 0:
		out["src"], out["dst"] = src, dst
		out["dist"] = distJSON(d.At(src, dst))
	case src >= 0:
		out["src"] = src
		out["dist"] = referenceRowJSON(d.RowView(src))
	default:
		rows := make([][]*int64, n)
		for i := range rows {
			rows[i] = referenceRowJSON(d.RowView(i))
		}
		out["dist"] = rows
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// referenceRowJSON converts one row.
func referenceRowJSON(row []int64) []*int64 {
	out := make([]*int64, len(row))
	for j, d := range row {
		out[j] = distJSON(d)
	}
	return out
}

// distCells encodes values as the fuzz target's cell bytes: 8 bytes little
// endian per value.
func distCells(values ...int64) []byte {
	b := make([]byte, 0, 8*len(values))
	for _, v := range values {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// FuzzDistResponse pins distBody's bytes to the reference encoding for the
// pair (form 0), row (form 1) and full-matrix (form 2) responses. The
// matrix is n×n (n ≤ 64) and cycles through the int64 values in cells,
// clamped into [−∞, +∞] as every distance matrix is. The seed corpus runs
// as a normal unit test.
func FuzzDistResponse(f *testing.F) {
	palette := []int64{0, 1, -1, 7, -8, 42, -300, 1 << 40,
		graph.Inf, graph.NegInf, graph.Inf - 1, graph.NegInf + 1}
	ids := []string{"sha256:0123abcd", `<script>&"\`, "", "a b\xff"}
	for _, n := range []uint8{0, 1, 2, 17, 64} {
		for form := uint8(0); form < 3; form++ {
			for r := range palette {
				rotated := append(append([]int64{}, palette[r:]...), palette[:r]...)
				src, dst := uint8(r), uint8(3*r+1)
				f.Add(ids[r%len(ids)], r%2 == 0, n, form, src, dst, distCells(rotated...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, id string, cached bool, n, form, src, dst uint8, cells []byte) {
		size := int(n) % 65
		d := matrix.New(size)
		if values := len(cells) / 8; values > 0 {
			for k := 0; k < size*size; k++ {
				v := binary.LittleEndian.Uint64(cells[8*(k%values):])
				d.Set(k/size, k%size, int64(v))
			}
		}
		si, di := -1, -1 // full matrix
		if size > 0 {
			switch form % 3 {
			case 0:
				si, di = int(src)%size, int(dst)%size
			case 1:
				si = int(src) % size
			}
		}
		got := distBody(id, cached, d, si, di)
		want := referenceDistBody(id, cached, d, si, di)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d src=%d dst=%d: body differs from the reference\n got: %.300q\nwant: %.300q", size, si, di, got, want)
		}
	})
}

// TestDistFullAllocs gates the allocations of a cached n=256 full-matrix
// GET dist through the whole handler. The body is appended into one
// buffer, so the count does not grow with n²; the per-cell *int64
// encoding it replaced made 65,823 on this graph.
func TestDistFullAllocs(t *testing.T) {
	svc := New(Config{})
	h := NewHandler(svc)
	id, err := svc.PutGraph(testDigraph(t, 256, 3))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/graphs/"+id+"/dist?strategy=gossip", nil)
	serveDist := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET dist: status %d: %s", rec.Code, rec.Body)
		}
	}
	serveDist() // solves; the measured requests are cache hits
	allocs := testing.AllocsPerRun(20, serveDist)
	t.Logf("%.0f allocations per request", allocs)
	if allocs >= 100 {
		t.Fatalf("cached n=256 full-matrix GET dist: %.0f allocations per request, want < 100", allocs)
	}
}
