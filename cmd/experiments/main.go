// Command experiments regenerates the paper-reproduction experiment suite
// (E1–E12, see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-exp e1,e4] [-quick] [-seed 42] [-markdown]
//
// With no -exp flag every experiment runs. The output is the paper-claim /
// measured report that EXPERIMENTS.md records. -seed drives protocol
// randomness only: every input comes from internal/experiments/workload,
// fixed per size, so at -seed 0 the E1 and E2 rows print cmd/bench's pinned
// rounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qclique/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		expList  = fs.String("exp", "", "comma-separated experiment ids (default: all); available: "+strings.Join(experiments.IDs(), ","))
		quick    = fs.Bool("quick", false, "smaller sweeps")
		seed     = fs.Uint64("seed", 42, "protocol randomness seed (inputs are fixed per size)")
		markdown = fs.Bool("markdown", false, "emit EXPERIMENTS.md-style markdown sections")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed}

	ids := experiments.IDs()
	if *expList != "" {
		ids = strings.Split(*expList, ",")
	}
	pass := 0
	for _, id := range ids {
		res, err := experiments.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			return err
		}
		if *markdown {
			fmt.Printf("## %s — %s\n\n**Paper claim.** %s\n\n**Measured.** %s\n\n```\n%s```\n\n", strings.ToUpper(res.ID), res.Title, res.PaperClaim, res.Summary, res.Output)
		} else {
			status := "PASS"
			if !res.OK {
				status = "CHECK"
			}
			fmt.Printf("=== %s [%s] %s\n", strings.ToUpper(res.ID), status, res.Title)
			fmt.Printf("paper:    %s\nmeasured: %s\n%s\n", res.PaperClaim, res.Summary, res.Output)
		}
		if res.OK {
			pass++
		}
	}
	fmt.Printf("%d/%d experiments consistent with the paper's claims\n", pass, len(ids))
	return nil
}
