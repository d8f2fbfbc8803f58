// Command slreport regenerates the paper's figures and quantitative
// claims as text tables (see DESIGN.md's experiment index).
//
// Usage:
//
//	slreport [-experiment all|fig1|fig2|table1|safesets|rounds|fig3|
//	          guarantee|thm4|fig4|fig5|compare|distributed|ablate|
//	          broadcast|traffic|gh|churn|diagnose]
//	         [-seed N] [-trials N] [-csv]
//
// The default regenerates everything with the seeds and trial counts
// recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/expt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the exit code; split from
// main so the CLI is testable.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("slreport", flag.ContinueOnError)
	fs.SetOutput(errOut)
	experiment := fs.String("experiment", "all", "experiment to run (all, fig1, fig2, table1, safesets, rounds, fig3, guarantee, thm4, fig4, fig5, compare, distributed, ablate, broadcast, traffic, gh, churn, diagnose)")
	seed := fs.Uint64("seed", 0, "RNG seed (0 = the recorded default)")
	trials := fs.Int("trials", 0, "Monte-Carlo trials per point (0 = the recorded default)")
	csv := fs.Bool("csv", false, "emit CSV instead of formatted tables")
	jsonOut := fs.Bool("json", false, "emit JSON instead of formatted tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := expt.Config{Seed: *seed, Trials: *trials}

	runners := map[string]func() []*expt.Table{
		"fig1":   func() []*expt.Table { return []*expt.Table{expt.Fig1()} },
		"fig2":   func() []*expt.Table { return []*expt.Table{expt.Fig2(cfg), expt.Fig2Distribution(cfg)} },
		"table1": func() []*expt.Table { return []*expt.Table{expt.Table1()} },
		"safesets": func() []*expt.Table {
			return []*expt.Table{expt.SafeSetSizes(cfg)}
		},
		"rounds": func() []*expt.Table { return []*expt.Table{expt.RoundsComparison(cfg)} },
		"fig3":   func() []*expt.Table { return []*expt.Table{expt.Fig3()} },
		"guarantee": func() []*expt.Table {
			t, _ := expt.Guarantee(cfg)
			return []*expt.Table{t}
		},
		"thm4": func() []*expt.Table { return []*expt.Table{expt.Theorem4(cfg)} },
		"fig4": func() []*expt.Table { return []*expt.Table{expt.Fig4()} },
		"fig5": func() []*expt.Table { return []*expt.Table{expt.Fig5()} },
		"compare": func() []*expt.Table {
			return []*expt.Table{expt.Compare(cfg)}
		},
		"distributed": func() []*expt.Table {
			return []*expt.Table{expt.Distributed(cfg), expt.AsyncVsSync(cfg), expt.UpdateStrategies(cfg)}
		},
		"ablate": func() []*expt.Table {
			return []*expt.Table{expt.TieBreakAblation(cfg), expt.TruncatedGSAblation(cfg)}
		},
		"broadcast": func() []*expt.Table {
			return []*expt.Table{expt.BroadcastSweep(cfg)}
		},
		"traffic": func() []*expt.Table {
			return []*expt.Table{expt.Traffic(cfg)}
		},
		"gh": func() []*expt.Table {
			return []*expt.Table{expt.GHSweep(cfg), expt.GHDistributed(cfg)}
		},
		"churn": func() []*expt.Table {
			return []*expt.Table{expt.ChurnRepair(cfg)}
		},
		"diagnose": func() []*expt.Table {
			return []*expt.Table{expt.DiagnoseSweep(cfg)}
		},
	}
	order := []string{"fig1", "fig2", "table1", "safesets", "rounds", "fig3",
		"guarantee", "thm4", "fig4", "fig5", "compare", "distributed", "ablate",
		"broadcast", "traffic", "gh", "churn", "diagnose"}

	var selected []string
	if *experiment == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(errOut, "slreport: unknown experiment %q (known: all, %s)\n",
					name, strings.Join(order, ", "))
				return 2
			}
			selected = append(selected, name)
		}
	}

	for _, name := range selected {
		for _, tab := range runners[name]() {
			switch {
			case *jsonOut:
				if err := tab.JSON(out); err != nil {
					fmt.Fprintln(errOut, "slreport:", err)
					return 1
				}
			case *csv:
				tab.CSV(out)
			default:
				tab.Render(out)
			}
		}
	}
	return 0
}
