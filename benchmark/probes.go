package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"qclique/benchmark/report"
)

// runProbes builds and runs the layer probes after the workload, each
// probe counting as one operation, and adds their medians to the metrics.
func runProbes(cfg *config, oc *outcome) error {
	bin, err := build(cfg, "probe")
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, "-seed", strconv.FormatUint(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = diesWithParent()
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	var probes []report.Probe
	if err := json.Unmarshal(out, &probes); err != nil {
		return fmt.Errorf("probe report: %w", err)
	}
	for _, p := range probes {
		var perr error
		if p.Err != "" {
			perr = fmt.Errorf("%s", p.Err)
		}
		oc.check(perr)
		oc.metrics[p.Name] = p.Value
		if p.StartUnixNs != 0 {
			cfg.spans.add(0, "probe."+p.Name, time.Unix(0, p.StartUnixNs), time.Unix(0, p.EndUnixNs),
				map[string]any{"calls": p.Calls, "median": p.Value, "unit": p.Unit})
		}
	}
	return nil
}
