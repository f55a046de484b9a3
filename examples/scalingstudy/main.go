// Scaling study: sweep the FindEdgesWithPromise problem size and print the
// round-complexity series for the quantum pipeline against the classical
// baselines, with fitted exponents — the textual rendition of the paper's
// n^{1/4} vs n^{1/3} vs √n separation. It is experiment e4 in quick mode
// (n ∈ {16, 81, 256}) at protocol seed 1, and exits nonzero unless e4 is
// consistent with the paper's claim.
package main

import (
	"fmt"
	"log"

	"qclique/internal/experiments"
)

func main() {
	res, err := experiments.Run("e4", experiments.Config{Quick: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n\n%s\nmeasured: %s\n", res.Title, res.Output, res.Summary)
	if !res.OK {
		log.Fatal("e4 is not consistent with the paper's claim")
	}
}
