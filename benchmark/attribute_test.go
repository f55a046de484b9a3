package main

import (
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

var sink uint64

//go:noinline
func burnCPU(d time.Duration) {
	x := sink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + uint64(i)
		}
	}
	sink = x
}

// A profile captured here decodes, holds the function that burned the CPU,
// and attributes shares that sum to 1.
func TestDecodeAndAttributeCapturedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Fatal("no samples")
	}
	var burned int64
	for i, st := range p.stacks {
		for _, f := range st {
			if strings.HasSuffix(f.fn, ".burnCPU") {
				burned += p.weights[i]
				if !strings.HasSuffix(f.file, "attribute_test.go") {
					t.Errorf("burnCPU in file %q", f.file)
				}
				break
			}
		}
	}
	if burned == 0 {
		t.Fatal("no sample in burnCPU")
	}
	shares := attribute([]*cpuProfile{p})
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 || len(shares) != len(layers) {
		t.Fatalf("shares %v sum to %v", shares, sum)
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"runtime.mallocgc", ""}, {"qclique/internal/triangles.(*Scratch).eval", ""}, {"qclique/internal/par.For.func1", ""}}, "triangles"},
		{[]frame{{"qclique/internal/quantum.Search", ""}}, "qsearch"},
		{[]frame{{"qclique/internal/core.Solve", ""}}, "engine"},
		{[]frame{{"qclique.SolveAPSPContext", "/x/qclique.go"}}, "engine"},
		{[]frame{{"qclique/internal/par.Grow[go.shape.int64]", ""}}, "par"},
		{[]frame{{"encoding/json.(*encodeState).marshal", ""}, {"qclique/internal/serve.writeJSON", "/x/internal/serve/http.go"}}, "http"},
		{[]frame{{"qclique/internal/serve.(*Service).SolveContext", "/x/internal/serve/serve.go"}}, "serve"},
		{[]frame{{"internal/poll.(*FD).Read", ""}, {"net.(*conn).Read", ""}, {"net/http.(*conn).serve", ""}}, "http"},
		{[]frame{{"runtime.scanobject", ""}, {"runtime.gcBgMarkWorker", ""}}, "gc"},
		{[]frame{{"runtime.futex", ""}, {"runtime.schedule", ""}}, "runtime"},
		{[]frame{{"main.run", ""}}, "runtime"},
		{[]frame{{"qclique/benchmark/inputs.FloydWarshall", ""}}, "other"},
		{nil, "runtime"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// Every package under internal/ maps to a layer, so a new package cannot
// fall silently into "other".
func TestEveryInternalPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		l, ok := internalLayers[e.Name()]
		if !ok {
			t.Errorf("internal/%s has no layer in internalLayers", e.Name())
		}
		if !slices.Contains(layers, l) {
			t.Errorf("internal/%s maps to unknown layer %q", e.Name(), l)
		}
	}
}
