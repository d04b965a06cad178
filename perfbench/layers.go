package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/futex"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/synclib"
	"repro/internal/telemetry"
)

// layerMetrics is every per-layer metric a traced run prints, with its
// unit. A workload that does not exercise a layer reports 0 for it (the
// README lists which workload measures which metric).
var layerMetrics = []struct{ name, unit string }{
	{"core.new_session_ms", "ms"},
	{"workload.native_program_ms", "ms"},
	{"webserver.native_latency_us_p50", "us"},
	{"webserver.native_cpu_us_per_req", "us"},
	{"agent.sync_ops", "ops/op"},
	{"agent.stalls", "stalls/op"},
	{"agent.ns_per_sync_op", "ns"},
	{"agent.lock_ns_p50.master", "ns"},
	{"agent.lock_ns_p50.slave", "ns"},
	{"monitor.records", "records/op"},
	{"monitor.records_per_req", "records/req"},
	{"monitor.us_per_record", "us"},
	{"monitor.syscall_us_p50.master", "us"},
	{"monitor.syscall_us_p50.slave", "us"},
	{"monitor.write_us_mean.master", "us"},
	{"monitor.write_us_mean.slave", "us"},
	{"monitor.poll_us_mean.master", "us"},
	{"monitor.poll_us_mean.slave", "us"},
	{"monitor.recv_us_mean.master", "us"},
	{"monitor.recv_us_mean.slave", "us"},
	{"monitor.sendfile_us_mean.master", "us"},
	{"monitor.sendfile_us_mean.slave", "us"},
	{"monitor.accept_us_mean.master", "us"},
	{"monitor.accept_us_mean.slave", "us"},
	{"ring.parks_per_op", "parks/op"},
	{"ring.items_per_append", "items/append"},
	{"ring.items_per_consume", "items/consume"},
	{"futex.parks_per_op", "parks/op"},
	{"futex.wakes_per_op", "wakes/op"},
	{"kernel.connect_us_p50", "us"},
	{"kernel.send_us_p50", "us"},
	{"kernel.response_wait_us_p50", "us"},
	{"fleet.new_ms", "ms"},
	{"fleet.service_us_mean", "us"},
	{"fleet.queue_wait_us_mean", "us"},
	{"telemetry.cpu_us_per_req", "us"},
	{"trace.overhead_pct", "%"},
}

func setLayerDefaults(r *result) {
	for _, m := range layerMetrics {
		r.set(m.name, 0, m.unit)
	}
}

// setLayer sets a per-layer metric, keeping the unit from layerMetrics.
func setLayer(r *result, name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// setRingFutex reports the ring and futex counter deltas of a traced phase
// per replicated event (sync ops plus monitored records of the master).
func setRingFutex(r *result, r0, r1 ring.Metrics, f0, f1 futex.Metrics, events float64) {
	setLayer(r, "ring.parks_per_op", ratio(float64(r1.Parks-r0.Parks), events))
	setLayer(r, "ring.items_per_append", ratio(float64(r1.AppendItems-r0.AppendItems), float64(r1.AppendBatches-r0.AppendBatches)))
	setLayer(r, "ring.items_per_consume", ratio(float64(r1.ConsumeItems-r0.ConsumeItems), float64(r1.ConsumeRuns-r0.ConsumeRuns)))
	setLayer(r, "futex.parks_per_op", ratio(float64(f1.Parks-f0.Parks), events))
	setLayer(r, "futex.wakes_per_op", ratio(float64(f1.Wakes-f0.Wakes), events))
}

// setMatrixMeans reports the mean sampled latency of the main serving and
// output syscalls per variant, over the telemetry the monitor's matrix
// gathered between two snapshots (before may be empty). Means, not the
// histogram's p50: its buckets are powers of two, so a p50 flips by 2×
// between neighbouring runs.
func setMatrixMeans(r *result, before, after telemetry.Snapshot) {
	for _, c := range []struct {
		name string
		nr   kernel.Sysno
	}{
		{"write", kernel.SysWrite}, {"poll", kernel.SysPoll}, {"recv", kernel.SysRecv},
		{"sendfile", kernel.SysSendfile}, {"accept", kernel.SysAccept},
	} {
		for v, role := range []string{"master", "slave"} {
			if v >= len(after.Cells) {
				continue
			}
			h := &after.Cells[v][c.nr].Latency
			sumNs, n := float64(h.Sum()), float64(h.Count())
			if v < len(before.Cells) {
				b := &before.Cells[v][c.nr].Latency
				sumNs -= float64(b.Sum())
				n -= float64(b.Count())
			}
			setLayer(r, fmt.Sprintf("monitor.%s_us_mean.%s", c.name, role), ratio(sumNs/1e3, n))
		}
	}
}

// setOverhead reports how much the traced phase's end-to-end figure
// exceeds the untraced one, and prints both.
func setOverhead(r *result, name string, traced, untraced float64) {
	setLayer(r, "trace.overhead_pct", ratio((traced-untraced)*100, untraced))
	fmt.Printf("tracing overhead: %s traced=%.3f untraced=%.3f (%+.1f%%)\n",
		name, traced, untraced, ratio((traced-untraced)*100, untraced))
}

// Layer probe: a guest the benchmark owns, which times from inside each
// variant one synclib.Mutex Lock+Unlock pair and one replicated write(2) —
// the agent's and the monitor's cost per operation as the master and the
// slave each pay it.
const (
	probeLocks  = 20000
	probeWrites = 4000
)

func probeLayers(r *result, seed int64) {
	var locks, writes [2][]int64
	for v := range locks {
		locks[v] = make([]int64, probeLocks)
		writes[v] = make([]int64, probeWrites)
	}
	prog := core.Program{Name: "layer-probe", Main: func(t *core.Thread) {
		v := t.Variant()
		mu := synclib.NewMutex(t)
		for i := range locks[v] {
			t0 := time.Now()
			mu.Lock(t)
			mu.Unlock(t)
			locks[v][i] = int64(time.Since(t0))
		}
		fd := t.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/probe")).Val
		b := []byte{'x'}
		for i := range writes[v] {
			t0 := time.Now()
			t.Syscall(kernel.SysWrite, [6]uint64{fd}, b)
			writes[v][i] = int64(time.Since(t0))
		}
	}}
	pr := runProgram(mveeOptions(runSeed(seed, 1<<20)), prog)
	r.Attempted++
	if why := pr.failed(); why != "" {
		r.Failed++
		fmt.Printf("layer probe failed: %s\n", why)
		return
	}
	for v, role := range []string{"master", "slave"} {
		lk := make([]float64, len(locks[v]))
		for i, ns := range locks[v] {
			lk[i] = float64(ns)
		}
		setLayer(r, "agent.lock_ns_p50."+role, median(lk))
		setLayer(r, "monitor.syscall_us_p50."+role, median(durationsUs(writes[v])))
	}
}
