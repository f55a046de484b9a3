package main

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"qclique/internal/serve"
)

// TestParseFlags pins the daemon's command line: every flag reaches its
// field, the defaults the benchmark runs on stay put, and bad or removed
// flags are refused.
func TestParseFlags(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		cfg, addr, pprofAddr, drainTimeout, err := parseFlags(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := serve.Config{
			CacheSize:       64,
			MaxGraphs:       1024,
			MaxInflight:     runtime.GOMAXPROCS(0),
			QueueDepth:      64,
			DefaultStrategy: "auto",
		}
		if cfg != want {
			t.Errorf("default config %+v, want %+v", cfg, want)
		}
		if addr != ":8719" || pprofAddr != "" || drainTimeout != 30*time.Second {
			t.Errorf("defaults addr=%q pprof-addr=%q drain-timeout=%v, want \":8719\", \"\" and 30s", addr, pprofAddr, drainTimeout)
		}
	})

	t.Run("every flag", func(t *testing.T) {
		cfg, addr, pprofAddr, drainTimeout, err := parseFlags([]string{
			"-addr", "127.0.0.1:9000",
			"-cache-size", "7",
			"-max-graphs", "9",
			"-workers", "3",
			"-max-inflight", "5",
			"-queue-depth", "11",
			"-drain-timeout", "1500ms",
			"-strategy", "classical",
			"-pprof-addr", "127.0.0.1:6060",
		})
		if err != nil {
			t.Fatal(err)
		}
		want := serve.Config{
			CacheSize:       7,
			MaxGraphs:       9,
			Workers:         3,
			MaxInflight:     5,
			QueueDepth:      11,
			DefaultStrategy: "classical-search",
		}
		if cfg != want {
			t.Errorf("config %+v, want %+v", cfg, want)
		}
		if addr != "127.0.0.1:9000" || pprofAddr != "127.0.0.1:6060" || drainTimeout != 1500*time.Millisecond {
			t.Errorf("addr=%q pprof-addr=%q drain-timeout=%v", addr, pprofAddr, drainTimeout)
		}
	})

	t.Run("unknown strategy", func(t *testing.T) {
		_, _, _, _, err := parseFlags([]string{"-strategy", "warp"})
		if !errors.Is(err, serve.ErrInvalidSpec) {
			t.Fatalf("-strategy warp: err = %v, want serve.ErrInvalidSpec", err)
		}
		for _, name := range []string{"quantum", "classical-search", "dolev", "gossip", "approx-quantum", "approx-skeleton"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-strategy warp error %q does not list %q", err, name)
			}
		}
	})

	t.Run("removed flags", func(t *testing.T) {
		for _, arg := range []string{"-selftest", "-soak=1s", "-overload-degrade"} {
			_, _, _, _, err := parseFlags([]string{arg})
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("%s: err = %v, want an unknown-flag error", arg, err)
			}
		}
	})
}
