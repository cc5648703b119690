// Command experiments regenerates every table and figure in the
// paper's evaluation, plus the ablations, and prints them to stdout.
//
// Usage:
//
//	experiments               # everything
//	experiments -table 2      # one table (1, 2 or 3)
//	experiments -figure 1     # the Figure 1 executable trace
//	experiments -claims       # the headline claims
//	experiments -ablations    # the four ablation sweeps
//	experiments -sends 500    # more Table 3 samples
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	table := flag.Int("table", 0, "regenerate only this table (1-3)")
	figure := flag.Int("figure", 0, "regenerate only this figure (1)")
	claims := flag.Bool("claims", false, "recompute only the headline claims")
	ablations := flag.Bool("ablations", false, "run only the ablation sweeps")
	sends := flag.Int("sends", 200, "Table 3 sample count")
	seed := flag.Int64("seed", 0, "latency-model seed override for Table 3 (0 = default)")
	sweepSends := flag.Int("sweep-sends", 80, "memory-sweep samples per point")
	flag.Parse()

	all := *table == 0 && *figure == 0 && !*claims && !*ablations

	if all || *table == 1 {
		t1, err := experiments.RunTable1()
		check(err)
		fmt.Println(t1.Render())
	}
	if all || *table == 2 {
		fmt.Println(experiments.RenderTable2(experiments.RunTable2()))
		fmt.Println(experiments.RenderFullAccounting(experiments.RunTable2FullAccounting()))
		measured, err := experiments.RunTable2Measured(1)
		check(err)
		fmt.Println(experiments.RenderTable2Measured(measured))
	}
	if all || *table == 3 {
		t3, evidence, err := experiments.RunTable3(experiments.Table3Config{Sends: *sends, Seed: *seed})
		check(err)
		fmt.Println(t3.Render())
		fmt.Println(evidence.Render())
	}
	if all || *figure == 1 {
		tr, err := experiments.RunFigure1()
		check(err)
		fmt.Println(tr.Render())
	}
	if all || *claims {
		c, err := experiments.RunClaims()
		check(err)
		fmt.Println(c.Render())
	}
	if all || *ablations {
		mem, err := experiments.RunMemorySweep(*sweepSends)
		check(err)
		fmt.Println(experiments.RenderMemorySweep(mem))

		fmt.Println(experiments.RenderCrossover(experiments.RunDIYvsEC2Crossover()))

		cold, err := experiments.RunColdStartAblation(2)
		check(err)
		fmt.Println(experiments.RenderColdStarts(cold))

		fmt.Println(experiments.RenderPollInterval(experiments.RunPollIntervalAblation()))

		backends, err := experiments.RunBackendComparison(*sweepSends)
		check(err)
		fmt.Println(experiments.RenderBackends(backends))

		streaming, err := experiments.RunStreamingComparison(0)
		check(err)
		fmt.Println(experiments.RenderStreaming(streaming))

		fmt.Println(experiments.RenderVideoHosting(experiments.RunVideoHostingComparison()))

		ddos, err := experiments.RunDDoSCostStudy(20_000)
		check(err)
		fmt.Println(experiments.RenderDDoS(ddos))
	}
}

func check(err error) {
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
}
