package main

import (
	"fmt"
	"io"
)

// compareFiles prints, for every workload × end-to-end metric of two
// results.json files, both values, how much worse the second is, the
// bound, and a verdict:
//
//	ok          not worse than the first by more than the bound
//	worse       worse by more than the bound; for a modelled metric, worse
//	            at all, since those repeat exactly
//	unresolved  the rounds of either run spread wider than the bound, so
//	            the two values cannot be told apart at that resolution
//
// It refuses (exit 2) to compare runs whose input hashes differ: they did
// not measure the same bytes. It exits 1 if any verdict is worse or any
// operation failed, 0 otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var a, b allResults
	for path, into := range map[string]*allResults{pathA: &a, pathB: &b} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintf(w, "benchmark: %v\n", err)
			return 2
		}
	}
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "benchmark: workload %s is missing from one of the files\n", name)
			return 2
		}
		if wa.InputSHA256 != wb.InputSHA256 {
			fmt.Fprintf(w, "benchmark: %s ran different inputs (%.12s… vs %.12s…); refusing to compare\n",
				name, wa.InputSHA256, wb.InputSHA256)
			return 2
		}
	}
	status := 0
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			worse := (vb.Value - va.Value) / va.Value
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case d.modelled:
				if worse > 0 {
					verdict = "worse"
				}
			case max(va.SpreadPct, vb.SpreadPct)/100 > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "worse"
			}
			if verdict == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				name, d.name, va.Value, vb.Value, worse*100, d.bound*100, verdict)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-12s failed operations: %d of %d, then %d of %d\n",
				name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			status = 1
		}
	}
	return status
}
