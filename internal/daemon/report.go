package daemon

import (
	"fmt"
	"strings"

	"tracenet/internal/collect"
)

// The daemon renders its own final report instead of reusing
// collect.Report.WriteTo, whose topology observation counts and wire-probe
// total cover only what the last run traced. The daemon report renders
// quantities that are schedule- and resume-independent: per-target rows
// (reached, hops, subnets, trace probes are pure functions of the target on
// a deterministic substrate) and the sorted distinct-subnet inventory. A
// resumed campaign's collect.Run restores its completed targets' rows from
// the checkpoint, so a campaign SIGTERM'd, restarted and resumed renders
// the same bytes as an uninterrupted run. Run accounting that genuinely
// differs across a resume (wire totals, cache hits) lives in the metrics
// exposition and the status document, not here.

// renderReport renders the resume-invariant final report: the campaign
// header, per-target rows in input order, and the distinct subnet inventory
// in its deterministic (prefix, pivot) order. A row restored from the
// checkpoint renders exactly as the run that traced it did.
func renderReport(id, tenant string, rep *collect.Report) []byte {
	var b strings.Builder
	counts := struct{ done, skipped, failed, other int }{}
	for i := range rep.Targets {
		switch reportStatus(rep.Targets[i].Status) {
		case collect.StatusDone:
			counts.done++
		case collect.StatusSkipped:
			counts.skipped++
		case collect.StatusFailed:
			counts.failed++
		default:
			counts.other++
		}
	}
	fmt.Fprintf(&b, "campaign %s tenant %s: %d targets (done %d, skipped %d, failed %d, other %d)\n",
		id, tenant, len(rep.Targets), counts.done, counts.skipped, counts.failed, counts.other)
	for i := range rep.Targets {
		t := &rep.Targets[i]
		st := reportStatus(t.Status)
		fmt.Fprintf(&b, "  %-15v %-8s", t.Dst, st)
		if st == collect.StatusDone {
			fmt.Fprintf(&b, " reached=%v hops=%d subnets=%d trace-probes=%d",
				t.Reached, t.Hops, t.Subnets, t.TraceProbes)
		} else if t.Note != "" {
			fmt.Fprintf(&b, " (%s)", t.Note)
		}
		b.WriteByte('\n')
	}
	subnets := rep.Subnets()
	fmt.Fprintf(&b, "\nsubnets (%d):\n", len(subnets))
	for _, s := range subnets {
		fmt.Fprintf(&b, "  %v\n", s)
	}
	return []byte(b.String())
}

// reportStatus renders a target restored from the checkpoint as the done
// target it was when its row was journaled.
func reportStatus(st collect.TargetStatus) collect.TargetStatus {
	if st == collect.StatusResumed {
		return collect.StatusDone
	}
	return st
}
