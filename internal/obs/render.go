package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ids/internal/metrics"
)

// Render writes the trace as an EXPLAIN ANALYZE style report: a
// lifecycle header, then the operator tree with cardinalities,
// virtual-clock seconds and rank skew, and (with perRank) one
// indented line per rank under each operator.
func (tr *QueryTrace) Render(w io.Writer, perRank bool) {
	fmt.Fprintf(w, "EXPLAIN ANALYZE %s  (%d ranks)\n", tr.ID, tr.Ranks)
	if tr.Fingerprint != "" {
		fmt.Fprintf(w, "fingerprint %s", tr.Fingerprint)
		if tr.TailReason != "" {
			fmt.Fprintf(w, "  tail-retained (%s)", tr.TailReason)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "parse %.6fs  plan %.6fs  exec %.6fs  wall %.6fs  |  simulated makespan %.6fs\n",
		tr.ParseSeconds, tr.PlanSeconds, tr.ExecSeconds, tr.WallSeconds, tr.Makespan)
	if tr.Collectives > 0 {
		fmt.Fprintf(w, "collectives %d  comm %d bytes  comm-cost %.6fs\n",
			tr.Collectives, tr.CommBytes, tr.CommSeconds)
	}
	if len(tr.Phases) > 0 {
		names := make([]string, 0, len(tr.Phases))
		for n := range tr.Phases {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = fmt.Sprintf("%s=%.6fs", n, tr.Phases[n])
		}
		fmt.Fprintln(w, "phases:", strings.Join(parts, " "))
	}
	if tr.QueueWaitSeconds > 0 {
		fmt.Fprintf(w, "admission queue-wait %.6fs\n", tr.QueueWaitSeconds)
	}
	if r := tr.Resources; r != nil {
		fmt.Fprintf(w, "resources: alloc %s (%d mallocs)  op-accounted %s (%d mallocs, %.0f%% of alloc)  cpu %.6fs\n",
			FormatBytes(r.AllocBytes), r.Mallocs,
			FormatBytes(r.OpAllocBytes), r.OpMallocs, 100*r.OpCoverage(), r.CPUSeconds)
	}

	t := metrics.NewTable("", "operator", "rows-in", "rows-out", "vt-max(s)", "vt-mean(s)", "skew", "wall-max(s)", "cpu(s)", "alloc", "mallocs", "detail")
	for _, op := range tr.Ops {
		indent := strings.Repeat("  ", op.Depth)
		label := op.Label
		if op.Note != "" {
			if label != "" {
				label += " "
			}
			label += op.Note
		}
		t.AddRow(indent+op.Op, op.RowsIn, op.RowsOut,
			fmt.Sprintf("%.6f", op.VTMax), fmt.Sprintf("%.6f", op.VTMean),
			fmt.Sprintf("%.2f", op.Skew), fmt.Sprintf("%.6f", op.WallMax),
			fmt.Sprintf("%.6f", op.CPUSeconds), FormatBytes(op.AllocBytes), op.Mallocs, label)
		if perRank {
			for _, rk := range op.Ranks {
				t.AddRow(fmt.Sprintf("%s  · rank %d", indent, rk.Rank), rk.RowsIn, rk.RowsOut,
					fmt.Sprintf("%.6f", rk.VT), "", "", fmt.Sprintf("%.6f", rk.Wall),
					fmt.Sprintf("%.6f", rk.Wall), FormatBytes(rk.AllocBytes), rk.Mallocs, rk.Note)
			}
		}
	}
	t.Render(w)
	fmt.Fprintf(w, "%d rows returned\n", tr.Rows)
}

// FormatBytes renders a byte count human-readably (binary units, one
// decimal), e.g. "20.0MiB"; counts under 1KiB stay exact ("712B").
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// String renders the trace without per-rank detail.
func (tr *QueryTrace) String() string {
	var sb strings.Builder
	tr.Render(&sb, false)
	return sb.String()
}
