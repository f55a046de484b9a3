package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHTTPUnprefixedRoutesAnswer404 pins that the API is mounted only under
// /v1: the unprefixed routes of earlier releases are not found.
func TestHTTPUnprefixedRoutesAnswer404(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Config{})))
	defer srv.Close()

	gj := GraphJSON{N: 2, Arcs: []ArcJSON{{U: 0, V: 1, W: 1}}}
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", gj, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/graphs: %d, want 200", resp.StatusCode)
	}
	for _, rt := range []struct{ method, path string }{
		{http.MethodPut, "/graphs"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/readyz"},
	} {
		if resp := doJSON(t, srv, rt.method, rt.path, gj, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", rt.method, rt.path, resp.StatusCode)
		}
	}
}
