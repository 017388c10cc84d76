package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"lfi/internal/workloads"
)

// workloadNames are fixed: later issues cite them.
var workloadNames = []string{"build", "exec", "transitions", "serve-warm", "serve-churn"}

// A decl declares one metric. BENCHMARK.json carries the same table; the
// smoke test keeps the two in step.
type decl struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// modelled metrics are bit-exact: identical in every round of every
	// run, whatever the seed. Host metrics are wall time, best of rounds.
	modelled bool
	bound    float64 // end-to-end only: relative worsening that is a regression
}

// hostBound is the bound of a host metric. It is wide because the box is
// noisy, not because a quarter is tolerable: ten runs of one commit spread
// 5–12% (interquartile range over median) whatever the estimator, since
// the machine's speed drifts over minutes, and a bound has to stand three
// such spreads clear. README.md has the numbers.
const hostBound = 0.25

// modelBound is the bound of a modelled metric. It is as good as zero —
// -compare and the per-round assertion demand equality — but positive, so
// a strict comparison against it never rejects two equal values.
const modelBound = 0.001

// endToEnd is what a user of the system pays, in terms every workload can
// report: how long before it is ready, how much memory it holds, how much
// work it finishes per second, how long one operation takes, and what the
// sandboxed code costs in the model. README.md defines "work", "operation"
// and the modelled cost for each workload; the aliases below give the
// workload-specific name and unit of each.
var endToEnd = []decl{
	{name: "setup_s", unit: "s", better: "lower", bound: hostBound},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: hostBound},
	{name: "work_per_s", unit: "1/s", better: "higher", bound: hostBound},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: hostBound},
	{name: "op_p99_ms", unit: "ms", better: "lower", bound: hostBound},
	{name: "modelled_cost", unit: "model", better: "lower", modelled: true, bound: modelBound},
}

// alias names the issue's workload-specific metric that an end-to-end
// metric is on one workload, with the factor that converts the unit.
type alias struct {
	workload, metric string
	name, unit       string
	scale            float64
}

var aliases = []alias{
	{"build", "work_per_s", "build_src_mb_per_s", "MB/s", 1e-6},
	{"build", "op_p50_ms", "build_small_us", "us", 1e3},
	{"build", "modelled_cost", "text_overhead_pct", "%", 1},
	{"exec", "work_per_s", "exec_minstr_per_s", "Minstr/s", 1e-6},
	{"exec", "modelled_cost", "lfi_overhead_pct", "%", 1},
	{"transitions", "work_per_s", "kcalls_per_s", "k/s", 1e-3},
	{"transitions", "modelled_cost", "cycles_per_call", "cycles", 1},
	{"serve-warm", "work_per_s", "jobs_per_s", "jobs/s", 1},
	{"serve-warm", "op_p50_ms", "job_p50_ms", "ms", 1},
	{"serve-warm", "op_p99_ms", "job_p99_ms", "ms", 1},
	{"serve-warm", "modelled_cost", "guest_instrs_per_job", "instr", 1},
	{"serve-churn", "work_per_s", "jobs_per_s", "jobs/s", 1},
	{"serve-churn", "op_p50_ms", "job_p50_ms", "ms", 1},
	{"serve-churn", "op_p99_ms", "job_p99_ms", "ms", 1},
	{"serve-churn", "modelled_cost", "guest_instrs_per_job", "instr", 1},
}

var microNames = []string{"syscall", "pipe", "yield", "ring", "vsubmit1", "vsubmit8"}

// perLayer is the ledger. Every traced run reports every entry; a layer a
// workload does not call reports 0 there, which is the prediction the
// workload was chosen to make.
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	lo := func(name, unit string) decl { return decl{name: name, unit: unit, better: "lower"} }
	hi := func(name, unit string) decl { return decl{name: name, unit: unit, better: "higher"} }
	model := func(d decl) decl { d.modelled = true; return d }
	d := []decl{
		// Toolchain (build; counts also on exec, from its set-up builds).
		lo("arm64.parse_ms", "ms"), lo("arm64.assemble_ms", "ms"), hi("arm64.src_mb", "MB"),
		lo("rewrite.o0_ms", "ms"), lo("rewrite.o2_ms", "ms"),
		model(hi("rewrite.insts_in", "count")), model(lo("rewrite.insts_out_o2", "count")),
		model(hi("rewrite.guards_folded", "count")), model(hi("rewrite.guards_hoisted", "count")),
		model(hi("rewrite.sp_elided", "count")),
		lo("elfobj.marshal_ms", "ms"), lo("elfobj.unmarshal_ms", "ms"),
		lo("verifier.ms", "ms"), hi("verifier.mb_per_s", "MB/s"), hi("verifier.text_mb", "MB"),
		lo("verifier.rejects", "count"),
		lo("wasmfront.compile_us", "us"), model(lo("wasmfront.overhead_pct", "%")),
		hi("wasmfront.minstr_per_s", "Minstr/s"),
		lo("build.unattributed_pct", "%"),
		// Emulator in long runs (exec).
		lo("emu.run_ms", "ms"), model(lo("emu.guest_minstr", "Minstr")),
		model(lo("emu.guest_mcycles", "Mcycles")), model(hi("emu.ipc", "instr/cycle")),
	}
	for _, k := range workloads.All() {
		d = append(d, hi("emu.minstr_per_s."+k.Name, "Minstr/s"))
	}
	d = append(d,
		// Runtime calls and the scheduler (transitions).
		model(lo("emu.instrs_per_call", "instr")), model(lo("lfirt.host_calls", "count")),
		model(lo("lfirt.switches", "count")), model(lo("lfirt.preempts", "count")),
	)
	for _, m := range microNames {
		d = append(d, lo("lfirt.ns_per_op."+m, "ns"))
	}
	for _, m := range microNames {
		d = append(d, model(lo("lfirt.cycles_per_op."+m, "cycles")))
	}
	d = append(d,
		// The ladder (serve-*): one request's latency, rung by rung.
		lo("lfirt.cold_load_us", "us"), lo("lfirt.snapshot_us", "us"),
		lo("lfirt.restore_us", "us"), lo("lfirt.start_run_us", "us"),
		lo("pool.do_us", "us"), lo("pool.do_cold_us", "us"), lo("pool.self_us", "us"),
		lo("serve.bin_rtt_us", "us"), lo("serve.http_rtt_us", "us"),
		lo("serve.bin_self_us", "us"), lo("serve.http_self_us", "us"),
		// Registry deltas over the timed rounds (serve-*).
		lo("pool.queue_wait_p50_us", "us"), lo("pool.restore_p50_us", "us"), lo("pool.run_p50_us", "us"),
		hi("pool.warm_hit_ratio", "ratio"), lo("pool.evictions", "count"), lo("pool.restores", "count"),
		hi("pool.image_cache_hit_ratio", "ratio"),
		lo("serve.image_post_new_ms", "ms"), lo("serve.image_post_hit_ms", "ms"),
		lo("serve.queue_wait_p50_us", "us"), lo("serve.shed", "count"),
		hi("serve.outcomes.ok", "count"), lo("serve.outcomes.other", "count"),
		// The benchmark process itself (all workloads).
		lo("host.cpu_s", "s"), lo("host.alloc_mb", "MB"), lo("host.gc_cycles", "count"),
		lo("bench.round_spread_pct", "%"), lo("bench.trace_overhead_pct", "%"),
	)
	return d
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// SpreadPct is (median−best)/best over the rounds, in percent: how far
	// a typical round sat from the one reported. 0 for modelled metrics.
	SpreadPct float64 `json:"spread_pct"`
	// Samples is how many observations stand behind the value in one
	// round (operations for a percentile, 1 for a rate).
	Samples int `json:"samples"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Trace       bool             `json:"trace"`
	InputSHA256 string           `json:"input_sha256"`
	Rounds      int              `json:"rounds"`
	RoundWallS  []float64        `json:"round_wall_s"` // every round, in order
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Failures    []string         `json:"failures,omitempty"` // first few, for the report
	Metrics     map[string]value `json:"metrics"`
	// Absent lists per-layer metrics whose registry key no longer exists;
	// they read 0 in Metrics because every declared metric must be
	// reported, and are flagged here so that 0 is not taken for a count.
	Absent []string `json:"absent,omitempty"`
}

func (r *result) decls() []decl {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes one line per metric, in declaration order, and under each
// end-to-end metric the issue-level name it carries on this workload.
func (r *result) print(w io.Writer) {
	for _, d := range r.decls() {
		v := r.Metrics[d.name]
		fmt.Fprintf(w, "%-12s %-32s %16.6g %-12s spread %5.2f%%  n=%d\n",
			r.Workload, d.name, v.Value, v.Unit, v.SpreadPct, v.Samples)
		for _, a := range aliases {
			if !r.Trace && a.workload == r.Workload && a.metric == d.name {
				fmt.Fprintf(w, "%-12s   = %-28s %16.6g %s\n", "", a.name, v.Value*a.scale, a.unit)
			}
		}
	}
	fmt.Fprintf(w, "%-12s %-32s %16.6g %-12s (%d failed of %d attempted, %d rounds)\n",
		r.Workload, "failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio",
		r.Failed, r.Attempted, r.Rounds)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-12s FAILED %s\n", r.Workload, f)
	}
	for _, a := range r.Absent {
		fmt.Fprintf(w, "%-12s ABSENT %s (registry key gone; reported as 0)\n", r.Workload, a)
	}
}

// driverLine is the object printed last: exactly these keys.
func (r *result) driverLine() map[string]any {
	metrics := map[string]any{}
	for _, d := range r.decls() {
		v := r.Metrics[d.name]
		metrics[d.name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

func detailPath(dir, workload string, trace bool) string {
	pass := "e2e"
	if trace {
		pass = "layers"
	}
	return filepath.Join(dir, workload+"."+pass+".json")
}

func (r *result) writeDetail(dir string) error {
	return writeJSON(detailPath(dir, r.Workload, r.Trace), r)
}

func readDetail(dir, workload string, trace bool) (*result, error) {
	var r result
	if err := readJSON(detailPath(dir, workload, trace), &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// allResults is results.json: both passes of every workload.
type allResults struct {
	Seed      int64                       `json:"seed"`
	Conns     int                         `json:"client_connections"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	InputSHA256 string           `json:"input_sha256"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Rounds      int              `json:"rounds"`
	EndToEnd    map[string]value `json:"end_to_end"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	Absent      []string         `json:"absent,omitempty"`
}

func (w *workloadResults) merge(r *result) {
	w.InputSHA256 = r.InputSHA256
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	if r.Trace {
		w.PerLayer = r.Metrics
		w.Absent = r.Absent
		return
	}
	w.Rounds = r.Rounds
	w.EndToEnd = r.Metrics
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
