package main

import (
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
)

// referenceRuns is how many runs each reference cell takes the median of.
const referenceRuns = 9

// printReference prints the figures the README records next to the
// paper's: native run times and the TO/PO/WoC slowdowns of both parsec
// programs at 2 variants (the paper's Table 1 averages are 2.76, 2.83 and
// 1.14), and the keep-alive server's overhead against native (the paper's
// §5.5 loopback figure is 48%), with req/s and p99. These are reference
// output, not bounded metrics: the TO agent's per-process medians are
// bimodal on a 2-CPU host.
func printReference(seed int64) {
	r := newResult()
	fmt.Printf("%-16s %10s %8s %8s %8s\n", "program", "native_ms", "TO", "PO", "WoC")
	paper := map[agent.Kind]float64{agent.TotalOrder: 2.76, agent.PartialOrder: 2.83, agent.WallOfClocks: 1.14}
	kinds := []agent.Kind{agent.TotalOrder, agent.PartialOrder, agent.WallOfClocks}
	for _, p := range []parsecSpec{parsecSync, parsecSyscall} {
		prog := p.build()
		want, ok := p.reference(r, prog, seed)
		if !ok {
			break
		}
		cell := func(o func(int) core.Options) float64 {
			var ms []float64
			for i := 0; i < referenceRuns; i++ {
				pr := runProgram(o(i), prog)
				if why := pr.failed(); why != "" {
					fmt.Printf("%s run failed: %s\n", p.program, why)
					return 0
				}
				p.checkOutputs(r, pr, want)
				ms = append(ms, float64(pr.res.Duration)/1e6)
			}
			return median(ms)
		}
		native := cell(func(i int) core.Options { return nativeOptions(runSeed(seed, i)) })
		row := fmt.Sprintf("%-16s %10.1f", p.program, native)
		for _, k := range kinds {
			mv := cell(func(i int) core.Options {
				o := mveeOptions(runSeed(seed, i))
				o.Agent = k
				return o
			})
			row += fmt.Sprintf(" %7.2fx", ratio(mv, native))
		}
		fmt.Println(row)
	}
	fmt.Printf("%-16s %10s %7.2fx %7.2fx %7.2fx\n", "paper (Table 1)", "",
		paper[agent.TotalOrder], paper[agent.PartialOrder], paper[agent.WallOfClocks])

	const dur = 5 * time.Second
	n, ok := keepAlivePhase(r, nativeOptions(runSeed(seed, 0)), seed, dur, false)
	if !ok {
		return
	}
	m, ok := keepAlivePhase(r, mveeOptions(runSeed(seed, 1)), seed, dur, false)
	if !ok {
		return
	}
	nt, mt := float64(n.requests)/n.elapsed.Seconds(), float64(m.requests)/m.elapsed.Seconds()
	fmt.Printf("nginx-keepalive native: %.0f req/s p50=%.2fus p99=%.2fus\n", nt, n.latUs(0.5), n.latUs(0.99))
	fmt.Printf("nginx-keepalive mvee:   %.0f req/s p50=%.2fus p99=%.2fus\n", mt, m.latUs(0.5), m.latUs(0.99))
	fmt.Printf("nginx-keepalive throughput overhead: %.1f%% (paper §5.5: 48%% on loopback)\n", (1-mt/nt)*100)
	for _, c := range r.checks {
		fmt.Printf("check FAILED: %s\n", c)
	}
}
