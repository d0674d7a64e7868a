// Command experiments regenerates every figure of the 2LDAG paper's
// evaluation (Sec. VI). Each figure's flow is documented on its
// function in package experiments.
//
// Usage:
//
//	experiments [-quick] [-csv] [fig7|fig8|fig9|ablation|scaling|all]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/twoldag/twoldag/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "run the minutes-fast scaled-down configuration")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	trials := flag.Int("trials", 0, "override Fig. 9 trial count")
	flag.Parse()

	scale := experiments.FullScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *trials > 0 {
		scale.Trials = *trials
	}
	which := flag.Arg(0)
	if which == "" {
		which = "all"
	}

	type runner func(experiments.Scale) ([]*experiments.FigResult, error)
	plan := map[string][]runner{
		"fig7":     {experiments.Fig7},
		"fig8":     {experiments.Fig8},
		"fig9":     {experiments.Fig9},
		"ablation": {experiments.Ablations},
		// The scaling curve is not a paper figure, so "all" (the figure
		// regeneration set) leaves it out; ask for it by name.
		"scaling": {experiments.ScalingCurve},
		"all":     {experiments.Fig7, experiments.Fig8, experiments.Fig9, experiments.Ablations},
	}
	runners, ok := plan[which]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want fig7|fig8|fig9|ablation|scaling|all)\n", which)
		return 2
	}
	for _, r := range runners {
		figs, err := r(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment failed: %v\n", err)
			return 1
		}
		for _, fig := range figs {
			if *csv {
				fmt.Printf("# %s\n%s\n", fig.Name, fig.CSV())
				continue
			}
			if err := fig.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "rendering: %v\n", err)
				return 1
			}
		}
	}
	return 0
}
