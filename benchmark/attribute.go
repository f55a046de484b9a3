package main

import "strings"

// modulePath is the import path of the program under test.
const modulePath = "qclique"

// layers lists the layers CPU time is attributed to, in report order.
var layers = []string{
	"triangles", "qsearch", "congest", "distprod", "matrix", "par", "engine",
	"graph", "xrand", "serve", "http", "runtime", "gc", "other",
}

// internalLayers maps every directory under internal/ to its layer. A
// package missing here is attributed to "other", and a test fails until it
// is added.
var internalLayers = map[string]string{
	"triangles": "triangles",
	"qsearch":   "qsearch",
	"quantum":   "qsearch",
	"congest":   "congest",
	"distprod":  "distprod",
	"matrix":    "matrix",
	"par":       "par",
	"engine":    "engine",
	"core":      "engine",
	"approx":    "engine",
	"graph":     "graph",
	"xrand":     "xrand",
	"serve":     "serve",
	// The experiment tables are on no workload's path.
	"experiments": "other",
	"expfit":      "other",
}

// gcWorkers are the runtime's background collector goroutines. GC assists
// run inside the allocating function and are charged to its layer.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute returns each layer's share of the profiles' CPU time. A sample
// goes to the layer of its innermost frame in a package of the module; a
// sample with none goes to gc for a GC worker, to http inside net/http, net
// or bufio, and to runtime otherwise.
func attribute(profiles []*cpuProfile) map[string]float64 {
	byLayer := make(map[string]float64, len(layers))
	var total float64
	for _, p := range profiles {
		for i, stack := range p.stacks {
			w := float64(p.weights[i])
			byLayer[layerOfStack(stack)] += w
			total += w
		}
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = ratio(byLayer[l], total)
	}
	return shares
}

func layerOfStack(stack []frame) string {
	for _, f := range stack {
		if l, ok := repoLayer(f); ok {
			return l
		}
	}
	for _, f := range stack {
		for _, w := range gcWorkers {
			if f.fn == w {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		switch p := pkgOf(f.fn); {
		case p == "net", p == "bufio", strings.HasPrefix(p, "net/"):
			return "http"
		}
	}
	return "runtime"
}

// repoLayer maps a frame in a package of the module to its layer.
func repoLayer(f frame) (string, bool) {
	p := pkgOf(f.fn)
	switch {
	case p == modulePath:
		// The public façade.
		return "engine", true
	case strings.HasPrefix(p, modulePath+"/internal/"):
		dir, _, _ := strings.Cut(strings.TrimPrefix(p, modulePath+"/internal/"), "/")
		l, ok := internalLayers[dir]
		if !ok {
			return "other", true
		}
		if l == "serve" && strings.HasSuffix(f.file, "/serve/http.go") {
			return "http", true
		}
		return l, true
	case strings.HasPrefix(p, modulePath+"/"):
		// Commands and the benchmark's own packages.
		return "other", true
	}
	return "", false
}

// pkgOf returns the import path of a symbol name such as
// "qclique/internal/par.For.func1" or "net/http.(*conn).serve".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
