package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/futex"
	"repro/internal/ring"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// programTimeout bounds one guest program run. Runs take a few hundred
// milliseconds; one that is still going after this long has wedged.
const programTimeout = 20 * time.Second

// parsecSpec is one program workload: a registry model at fixed
// parameters, run again and again.
type parsecSpec struct {
	program string
	params  workload.Params
	// outFile is the shared output file the workers append to ("" = none)
	// and writeEvery the units per append.
	outFile    string
	writeEvery int
}

// parsecSync is swaptions with 2 workers: one lock round per unit over 16
// synclib.Mutexes and no syscalls, about 800k replicated sync ops a run.
var parsecSync = parsecSpec{
	program: "swaptions",
	params:  workload.Params{Workers: 2, Units: 400000},
}

// parsecSyscall is water_spatial with 2 workers at a reduced unit cost, so
// the replicated write(2)s dominate: one 1-byte append per 3 units to one
// shared file, and one lock round per 80 units. The appends are kept on
// purpose: every growing write reallocates and copies the whole file
// (inode.writeAt), a cost this workload exists to show.
var parsecSyscall = parsecSpec{
	program:    "water_spatial",
	params:     workload.Params{Workers: 2, Units: 30000, WorkPerUnit: 10},
	outFile:    "/reduce-out",
	writeEvery: 3,
}

// wantWrites is the closed-form append count: workers × ⌈units per worker ÷
// writeEvery⌉.
func (p parsecSpec) wantWrites() int {
	per := p.params.Units / p.params.Workers
	return p.params.Workers * ((per + p.writeEvery - 1) / p.writeEvery)
}

func (p parsecSpec) build() core.Program {
	b, err := workload.ByName(p.program)
	if err != nil {
		panic(err) // the specs above name registry entries
	}
	return b.Build(p.params)
}

// mveeOptions is the configuration every measured guest runs under.
func mveeOptions(seed int64) core.Options {
	return core.Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: seed}
}

// nativeOptions is the paper's native baseline: one variant, no agent.
func nativeOptions(seed int64) core.Options {
	return core.Options{Variants: 1, Agent: agent.None, Seed: seed}
}

// runSeed derives the layout seed of the i-th session of a run.
func runSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// programRun is one finished guest program run.
type programRun struct {
	sess     *core.Session
	res      *core.Result
	newTime  time.Duration // core.NewSession alone
	total    time.Duration // NewSession until the result is in, as the caller sees it
	timedOut bool
}

// runProgram builds and runs one session under the program watchdog.
func runProgram(opts core.Options, prog core.Program) programRun {
	t0 := time.Now()
	s := core.NewSession(opts, prog)
	built := time.Now()
	var timedOut atomic.Bool
	wd := time.AfterFunc(programTimeout, func() {
		timedOut.Store(true)
		s.Kill()
	})
	res := s.Run()
	total := time.Since(t0)
	wd.Stop()
	return programRun{sess: s, res: res, newTime: built.Sub(t0), total: total, timedOut: timedOut.Load()}
}

// failed reports a run that did not complete as an operation: a wedge, a
// divergence, a detected deadlock or a guest panic.
func (pr programRun) failed() string {
	switch {
	case pr.timedOut:
		return fmt.Sprintf("timed out after %v", programTimeout)
	case pr.res.Divergence != nil:
		return fmt.Sprintf("divergence: %v", pr.res.Divergence)
	case pr.res.Deadlock != nil:
		return fmt.Sprintf("deadlock: %v", pr.res.Deadlock)
	case pr.res.Panic != nil:
		return fmt.Sprintf("panic: %v", pr.res.Panic)
	}
	return ""
}

// checkOutputs compares a completed run's outputs with the native
// reference checksum and, for the append workload, the closed-form file
// length.
func (p parsecSpec) checkOutputs(r *result, pr programRun, want []byte) {
	got, _ := pr.sess.Kernel().ReadFile("/checksum")
	r.check(bytes.Equal(got, want), "%s: /checksum %q, native run wrote %q", p.program, got, want)
	if p.outFile != "" {
		out, _ := pr.sess.Kernel().ReadFile(p.outFile)
		r.check(len(out) == p.wantWrites(), "%s: %s holds %d writes, want %d",
			p.program, p.outFile, len(out), p.wantWrites())
	}
}

// reference runs the program natively once and returns its checksum, the
// transparent result every MVEE run must reproduce.
func (p parsecSpec) reference(r *result, prog core.Program, seed int64) ([]byte, bool) {
	pr := runProgram(nativeOptions(seed), prog)
	if why := pr.failed(); why != "" {
		r.Attempted++
		r.Failed++
		fmt.Printf("native reference run failed: %s\n", why)
		return nil, false
	}
	want, ok := pr.sess.Kernel().ReadFile("/checksum")
	r.check(ok && len(want) > 0, "%s: native run wrote no /checksum", p.program)
	if p.outFile != "" {
		p.checkOutputs(r, pr, want)
	}
	return want, r.Correct
}

// parsecSamples is what one phase of repeated runs measured.
type parsecSamples struct {
	programMs []float64 // core.Result.Duration
	latencyUs []float64 // NewSession until the result is in
	newMs     []float64 // core.NewSession (traced phases only)
	syncOps   []float64
	stalls    []float64
	records   []float64
	cpu       time.Duration
	matrix    telemetry.Snapshot // merged over runs (telemetry phases only)
	stopped   bool               // a run failed; the phase ended early
}

// phase runs the program back to back for dur under opts(i) and checks
// every run. A failed run counts as a failed operation and ends the phase.
func (p parsecSpec) phase(r *result, prog core.Program, opts func(i int) core.Options,
	dur time.Duration, want []byte, traced bool) parsecSamples {
	var s parsecSamples
	cpu0 := cpuTime()
	end := time.Now().Add(dur)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		o := opts(i)
		pr := runProgram(o, prog)
		r.Attempted++
		if why := pr.failed(); why != "" {
			r.Failed++
			fmt.Printf("run %d failed: %s\n", i, why)
			s.stopped = true
			break
		}
		p.checkOutputs(r, pr, want)
		s.programMs = append(s.programMs, float64(pr.res.Duration)/1e6)
		s.latencyUs = append(s.latencyUs, float64(pr.total)/1e3)
		if traced {
			s.newMs = append(s.newMs, float64(pr.newTime)/1e6)
			s.syncOps = append(s.syncOps, float64(pr.res.SyncOps))
			s.stalls = append(s.stalls, float64(pr.res.Stalls))
			s.records = append(s.records, float64(pr.res.Syscalls))
		}
		if o.Telemetry {
			s.matrix.Merge(pr.sess.Telemetry().Matrix.Snapshot())
		}
	}
	s.cpu = cpuTime() - cpu0
	return s
}

// setEndToEnd reports a phase's end-to-end figures.
func (s parsecSamples) setEndToEnd(r *result) {
	ms := append([]float64(nil), s.programMs...)
	lat := append([]float64(nil), s.latencyUs...)
	r.set("program_ms", median(ms), "ms")
	r.set("latency_us_p50", quantile(lat, 0.5), "us")
	fmt.Printf("runs: n=%d program_ms min=%.1f q1=%.1f median=%.1f q3=%.1f max=%.1f; latency_us p90=%.0f\n", len(ms),
		quantile(ms, 0), quantile(ms, 0.25), quantile(ms, 0.5), quantile(ms, 0.75), quantile(ms, 1), quantile(lat, 0.9))
	r.set("cpu_us_per_req", float64(s.cpu)/1e3/float64(max(1, len(s.programMs))), "us")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
}

// runParsec is the untraced run: set up (native reference run plus an
// untimed warm-up run) setupReps times, then run for the timed phase.
func runParsec(p parsecSpec) func(config) *result {
	return func(cfg config) *result {
		r := newResult()
		prog := p.build()
		var setups []float64
		var want []byte
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			w, ok := p.reference(r, prog, runSeed(cfg.seed, -1-i))
			if !ok {
				return r
			}
			want = w
			wr := runProgram(mveeOptions(runSeed(cfg.seed, -1-i)), prog)
			if why := wr.failed(); why != "" {
				r.Attempted++
				r.Failed++
				fmt.Printf("warm-up run failed: %s\n", why)
				return r
			}
			p.checkOutputs(r, wr, want)
			setups = append(setups, time.Since(t0).Seconds())
		}
		fmt.Printf("setups_s=%.4f\n", setups)
		s := p.phase(r, prog, func(i int) core.Options { return mveeOptions(runSeed(cfg.seed, i)) },
			cfg.seconds, want, false)
		s.setEndToEnd(r)
		r.set("setup_s", median(setups), "s")
		fmt.Printf("reference: runs=%d runs/s=%.2f\n", len(s.programMs),
			float64(len(s.programMs))/(cfg.seconds.Seconds()))
		return r
	}
}

// traceParsec is the traced run. It splits the run into phases of a
// quarter of the timed length each: untraced (the overhead baseline),
// traced (NewSession timed, agent/monitor counts, ring/futex deltas),
// telemetry on (the monitor's per-syscall latency means) and native (the
// paper's baseline); then it runs the layer probe guest.
func traceParsec(p parsecSpec) func(config) *result {
	return func(cfg config) *result {
		r := newResult()
		setLayerDefaults(r)
		prog := p.build()
		want, ok := p.reference(r, prog, runSeed(cfg.seed, -1))
		if !ok {
			return r
		}
		part := cfg.seconds / 4
		mvee := func(tel bool) func(int) core.Options {
			return func(i int) core.Options {
				o := mveeOptions(runSeed(cfg.seed, i))
				o.Telemetry = tel
				return o
			}
		}
		u := p.phase(r, prog, mvee(false), part, want, false)
		ring0, futex0 := ring.ReadMetrics(), futex.ReadMetrics()
		t := p.phase(r, prog, mvee(false), part, want, true)
		ring1, futex1 := ring.ReadMetrics(), futex.ReadMetrics()
		m := p.phase(r, prog, mvee(true), part, want, false)
		n := p.phase(r, prog, func(i int) core.Options { return nativeOptions(runSeed(cfg.seed, i)) },
			part, want, false)
		if u.stopped || t.stopped || m.stopped || n.stopped {
			return r
		}

		uMs, tMs := median(u.programMs), median(t.programMs)
		nativeMs := median(n.programMs)
		syncOps, records := median(t.syncOps), median(t.records)
		setLayer(r, "core.new_session_ms", median(t.newMs))
		setLayer(r, "workload.native_program_ms", nativeMs)
		setLayer(r, "agent.sync_ops", syncOps)
		setLayer(r, "agent.stalls", median(t.stalls))
		setLayer(r, "agent.ns_per_sync_op", ratio((uMs-nativeMs)*1e6, syncOps))
		setLayer(r, "monitor.records", records)
		setLayer(r, "monitor.us_per_record", ratio((uMs-nativeMs)*1e3, records))
		events := sum(t.syncOps) + sum(t.records)
		setRingFutex(r, ring0, ring1, futex0, futex1, events)
		setMatrixMeans(r, telemetry.Snapshot{}, m.matrix)
		probeLayers(r, cfg.seed)
		setOverhead(r, "program_ms", tMs, uMs)
		fmt.Printf("native: program_ms=%.3f  mvee slowdown=%.3fx\n", nativeMs, uMs/nativeMs)
		return r
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
