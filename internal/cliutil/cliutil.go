// Package cliutil holds the small flag-parsing helpers shared by the
// commands: the -oracle flag (urpsm-sim, urpsm-bench, urpsm-serve and
// urpsm-replay all select a distance oracle the same way) and the
// -log-level flag with its slog construction.
package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/trace"
)

// OracleKinds are the accepted -oracle values. "auto" resolves to one of
// the other tiers by vertex count through shortest.Choose (DESIGN.md §8.3).
var OracleKinds = []string{"hub", "cch", "bidijkstra", "auto"}

// OracleUsage is the shared -oracle usage text.
const OracleUsage = "distance oracle: hub|cch|bidijkstra|auto (auto picks by graph size: hub up to 3k vertices, " +
	"cch up to 400k). The tier is kept across traffic epochs: cch re-customizes in milliseconds, " +
	"but an explicit hub rebuilds its labels on every epoch (about 0.9 s at 2.4k vertices, DESIGN.md §8.3)"

// OracleFlag registers the standard -oracle flag with the given default
// (commands that pick their default later pass "").
func OracleFlag(def string) *string {
	return flag.String("oracle", def, OracleUsage)
}

// CheckOracle validates an -oracle value at parse time, before any
// expensive work starts. The empty string is accepted: commands use it to
// mean "default chosen later" (hub for presets, auto for imports).
func CheckOracle(kind string) error {
	if kind == "" {
		return nil
	}
	for _, k := range OracleKinds {
		if kind == k {
			return nil
		}
	}
	return fmt.Errorf("unknown oracle %q (valid: %s)", kind, strings.Join(OracleKinds, "|"))
}

// BuildOracle constructs the named oracle over g and returns it with the
// resolved kind: "" defaults to "auto", and "auto" comes back as the tier
// shortest.Choose selected for the graph's size. The commands that build
// their own engine (urpsm-serve, urpsm-replay) use it; the experiment
// Runner caches shortest.Build's tiers per kind.
func BuildOracle(kind string, g *roadnet.Graph) (shortest.Oracle, string, error) {
	if err := CheckOracle(kind); err != nil {
		return nil, "", err
	}
	resolved := shortest.AutoKind(kind)
	if kind == "" || kind == "auto" {
		resolved = shortest.Choose(g.NumVertices())
	}
	return shortest.Build(resolved, g), string(resolved), nil
}

// LogLevels are the accepted -log-level values.
var LogLevels = []string{"debug", "info", "warn", "error"}

// LogLevelFlag registers the standard -log-level flag.
func LogLevelFlag(def string) *string {
	return flag.String("log-level", def, "log verbosity: debug|info|warn|error")
}

// NewLogger builds a structured stderr logger at the named level.
// Timestamps stay on (slog's default) — operators correlate these lines
// with trace wall_ns; the crash harness and smoke scripts match on
// message substrings, which text output preserves.
func NewLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (valid: %s)", level, strings.Join(LogLevels, "|"))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// TraceFlag registers the standard -trace flag (urpsm-sim, urpsm-bench):
// attach a flight recorder to the run and write its ring to FILE.
func TraceFlag() *string {
	return flag.String("trace", "",
		"write the planner flight-recorder event ring (JSON, FORMATS.md §9) to this file after the run")
}

// NewRecorder sizes a flight recorder for an offline run over n requests:
// two events per planned request (plan_start + plan) plus slack for
// traffic epochs and oracle rebuilds.
func NewRecorder(n int) *trace.Recorder {
	return trace.New(2*n + 64)
}

// WriteTrace dumps rec's retained events (oldest → newest) to path as an
// indented JSON object with the same {capacity, events} shape as the
// server's GET /debug/trace.
func WriteTrace(path string, rec *trace.Recorder) error {
	evs := rec.Events(make([]trace.Event, 0, rec.Len()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(struct {
		Capacity int           `json:"capacity"`
		Events   []trace.Event `json:"events"`
	}{rec.Capacity(), evs})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	fmt.Printf("trace: wrote %d event(s) to %s\n", len(evs), path)
	return nil
}
