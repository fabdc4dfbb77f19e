// Package logging implements the daemon's logging subsystem: a global
// priority level, per-module filters that override the global level, and a
// set of outputs each with its own priority threshold.
//
// The design mirrors libvirt's logger: filters and outputs are configured
// from compact strings ("3:rpc", "1:file:/var/log/virtd.log") either once at
// start-up from a configuration file or at runtime through the admin API.
// Runtime redefinition is atomic: a full copy of the settings is built,
// validated, and only then swapped in (read-copy-update), so concurrent
// writers never observe a half-defined filter set.
//
// Records are log/slog records. Each component logs through one
// *slog.Logger bound to its module (Logger.For); outputs are
// slog.TextHandlers over stderr or a file.
package logging

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Priority is a log message priority. Priorities form an inclusive
// hierarchy: a level of Debug logs everything, Error only errors.
type Priority int

// Recognised priorities, ordered from most to least verbose.
const (
	Debug Priority = 1 + iota
	Info
	Warn
	Error
)

// PriorityNames maps priorities to their canonical names.
var priorityNames = map[Priority]string{
	Debug: "debug",
	Info:  "info",
	Warn:  "warning",
	Error: "error",
}

func (p Priority) String() string {
	if s, ok := priorityNames[p]; ok {
		return s
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// Valid reports whether p is one of the four recognised priorities.
func (p Priority) Valid() bool { return p >= Debug && p <= Error }

// Level is the slog level of p: Debug, Info, Warn and Error map to
// slog's levels of the same names.
func (p Priority) Level() slog.Level { return slog.Level(4 * (int(p) - int(Info))) }

// ParsePriority converts a numeric or symbolic level string to a Priority.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1", "debug":
		return Debug, nil
	case "2", "info":
		return Info, nil
	case "3", "warn", "warning":
		return Warn, nil
	case "4", "error":
		return Error, nil
	}
	return 0, fmt.Errorf("logging: invalid priority %q", s)
}

// Filter overrides the global level for all modules whose name matches
// Match. Matching is by dot-separated prefix: a filter on "util" matches
// module "util.object" but not "utility".
type Filter struct {
	Priority Priority
	Match    string
}

// String formats the filter in configuration syntax ("3:util.object").
func (f Filter) String() string {
	return fmt.Sprintf("%d:%s", int(f.Priority), f.Match)
}

// matches reports whether the filter applies to module.
func (f Filter) matches(module string) bool {
	if module == f.Match {
		return true
	}
	return strings.HasPrefix(module, f.Match+".")
}

// ParseFilter parses a single "level:module" filter definition.
func ParseFilter(s string) (Filter, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return Filter{}, fmt.Errorf("logging: filter %q: missing ':' delimiter", s)
	}
	prio, err := ParsePriority(s[:i])
	if err != nil {
		return Filter{}, fmt.Errorf("logging: filter %q: %v", s, err)
	}
	match := s[i+1:]
	if match == "" {
		return Filter{}, fmt.Errorf("logging: filter %q: empty module match", s)
	}
	if strings.ContainsAny(match, " \t") {
		return Filter{}, fmt.Errorf("logging: filter %q: match string contains whitespace", s)
	}
	return Filter{Priority: prio, Match: match}, nil
}

// ParseFilters parses a space-separated list of filter definitions. An
// empty input yields an empty (but non-nil) filter list, which clears all
// filters when installed.
func ParseFilters(s string) ([]Filter, error) {
	fields := strings.Fields(s)
	filters := make([]Filter, 0, len(fields))
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		flt, err := ParseFilter(f)
		if err != nil {
			return nil, err
		}
		if seen[flt.Match] {
			return nil, fmt.Errorf("logging: duplicate filter for module %q", flt.Match)
		}
		seen[flt.Match] = true
		filters = append(filters, flt)
	}
	return filters, nil
}

// FormatFilters renders filters back to configuration syntax.
func FormatFilters(filters []Filter) string {
	parts := make([]string, len(filters))
	for i, f := range filters {
		parts[i] = f.String()
	}
	return strings.Join(parts, " ")
}

// Output is one destination with its own priority threshold: stderr, or
// a file opened for appending. Records reach it as slog text lines.
type Output struct {
	Priority Priority
	Kind     string // "stderr" or "file"
	Dest     string // path for file, empty for stderr
	h        slog.Handler
	f        *os.File // the opened file; nil for stderr
}

// String formats the output in configuration syntax.
func (o Output) String() string {
	if o.Kind == kindFile {
		return fmt.Sprintf("%d:%s:%s", int(o.Priority), o.Kind, o.Dest)
	}
	return fmt.Sprintf("%d:%s", int(o.Priority), o.Kind)
}

// Recognised output kinds.
const (
	kindStderr = "stderr"
	kindFile   = "file"
)

// ParseOutput parses a single "level:kind[:data]" output definition. The
// returned Output is not opened; DefineOutputs opens it.
func ParseOutput(s string) (Output, error) {
	parts := strings.SplitN(s, ":", 3)
	if len(parts) < 2 {
		return Output{}, fmt.Errorf("logging: output %q: missing ':' delimiter", s)
	}
	prio, err := ParsePriority(parts[0])
	if err != nil {
		return Output{}, fmt.Errorf("logging: output %q: %v", s, err)
	}
	out := Output{Priority: prio, Kind: parts[1]}
	switch out.Kind {
	case kindStderr:
		if len(parts) == 3 && parts[2] != "" {
			return Output{}, fmt.Errorf("logging: output %q: %s takes no extra data", s, out.Kind)
		}
	case kindFile:
		if len(parts) != 3 || parts[2] == "" {
			return Output{}, fmt.Errorf("logging: output %q: file output requires a path", s)
		}
		if !strings.HasPrefix(parts[2], "/") {
			return Output{}, fmt.Errorf("logging: output %q: file path must be absolute", s)
		}
		out.Dest = parts[2]
	default:
		return Output{}, fmt.Errorf("logging: output %q: unknown output kind %q (want stderr or file)", s, parts[1])
	}
	return out, nil
}

// ParseOutputs parses a space-separated list of output definitions.
func ParseOutputs(s string) ([]Output, error) {
	fields := strings.Fields(s)
	outs := make([]Output, 0, len(fields))
	for _, f := range fields {
		o, err := ParseOutput(f)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// FormatOutputs renders outputs back to configuration syntax.
func FormatOutputs(outs []Output) string {
	parts := make([]string, len(outs))
	for i, o := range outs {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// open attaches a text handler to o, opening its file first.
func (o *Output) open() error {
	w := io.Writer(os.Stderr)
	if o.Kind == kindFile {
		f, err := os.OpenFile(o.Dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o640)
		if err != nil {
			return fmt.Errorf("logging: open %s: %w", o.Dest, err)
		}
		o.f, w = f, f
	}
	o.h = slog.NewTextHandler(w, nil)
	return nil
}

// closeOutputs closes the files behind outs and returns the first error.
func closeOutputs(outs []Output) error {
	var first error
	for _, o := range outs {
		if o.f != nil {
			if err := o.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// settings is one immutable generation of the logger configuration.
type settings struct {
	level   Priority
	filters []Filter
	outputs []Output
}

// effectiveLevel returns the priority threshold that applies to module.
func (s *settings) effectiveLevel(module string) Priority {
	for _, f := range s.filters {
		if f.matches(module) {
			return f.Priority
		}
	}
	return s.level
}

// Logger owns the live logging settings: the global level, the filters
// and the outputs. Components log through the *slog.Logger that For
// binds to their module; the zero value is not usable, call New.
//
// Logging takes no lock: each record loads the current settings pointer
// atomically. Redefinition builds a complete new settings value and swaps
// it in, so concurrent records always see a consistent set.
type Logger struct {
	cur atomic.Pointer[settings]
	mu  sync.Mutex // serialises redefinition
}

// New creates a Logger with the given global level and a single stderr
// output at the same level.
func New(level Priority) *Logger {
	out := Output{Priority: level, Kind: kindStderr}
	out.open() //nolint:errcheck // stderr needs no opening
	l := &Logger{}
	l.cur.Store(&settings{level: level, outputs: []Output{out}})
	return l
}

// NewQuiet creates a Logger with no outputs at all; records are filtered
// and written nowhere. Useful for tests and benchmarks.
func NewQuiet(level Priority) *Logger {
	l := &Logger{}
	l.cur.Store(&settings{level: level})
	return l
}

// swap installs a copy of the current settings with edit applied and
// returns the generation it replaced.
func (l *Logger) swap(edit func(*settings)) *settings {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.cur.Load()
	next := *old
	edit(&next)
	l.cur.Store(&next)
	return old
}

// Level returns the current global priority level.
func (l *Logger) Level() Priority { return l.cur.Load().level }

// SetLevel atomically installs a new global priority level, keeping
// filters and outputs unchanged.
func (l *Logger) SetLevel(p Priority) error {
	if !p.Valid() {
		return fmt.Errorf("logging: invalid priority %d", int(p))
	}
	l.swap(func(s *settings) { s.level = p })
	return nil
}

// FiltersString returns the current filters in configuration syntax.
func (l *Logger) FiltersString() string { return FormatFilters(l.cur.Load().filters) }

// DefineFilters atomically replaces the whole filter set with the
// definitions parsed from s. An empty string clears all filters.
func (l *Logger) DefineFilters(s string) error {
	filters, err := ParseFilters(s)
	if err != nil {
		return err
	}
	// Longest match first so the most specific filter wins.
	sort.SliceStable(filters, func(i, j int) bool {
		return len(filters[i].Match) > len(filters[j].Match)
	})
	l.swap(func(s *settings) { s.filters = filters })
	return nil
}

// OutputsString returns the current outputs in configuration syntax.
func (l *Logger) OutputsString() string { return FormatOutputs(l.cur.Load().outputs) }

// DefineOutputs atomically replaces the whole output set with the
// definitions parsed from s, opening every new output before the swap
// and closing every replaced file after it. If any output fails to open,
// the previous configuration is left fully intact.
func (l *Logger) DefineOutputs(s string) error {
	outs, err := ParseOutputs(s)
	if err != nil {
		return err
	}
	for i := range outs {
		if err := outs[i].open(); err != nil {
			closeOutputs(outs[:i]) //nolint:errcheck
			return err
		}
	}
	closeOutputs(l.swap(func(s *settings) { s.outputs = outs }).outputs) //nolint:errcheck
	return nil
}

// Close closes all outputs and installs an empty output set.
func (l *Logger) Close() error {
	return closeOutputs(l.swap(func(s *settings) { s.outputs = nil }).outputs)
}

// For returns the logger a component writes through, bound to module:
// records carry a module attribute, and whether one is logged at all
// follows the level or filter that applies to module at that moment.
// Bind once per component; a record below its threshold allocates
// nothing when logged with LogAttrs.
func (l *Logger) For(module string) *slog.Logger {
	h := &handler{l: l, module: module}
	return slog.New(h.WithAttrs([]slog.Attr{slog.String("module", module)}))
}

// handler is the slog.Handler behind a module-bound logger. It holds no
// output of its own: a record goes to the outputs of the settings
// generation current when it is logged, each with the WithAttrs and
// WithGroup calls made on this handler replayed onto it.
type handler struct {
	l      *Logger
	module string
	with   []func(slog.Handler) slog.Handler
}

// Enabled implements slog.Handler.
func (h *handler) Enabled(_ context.Context, lvl slog.Level) bool {
	return lvl >= h.l.cur.Load().effectiveLevel(h.module).Level()
}

// Handle implements slog.Handler.
func (h *handler) Handle(ctx context.Context, r slog.Record) error {
	var first error
	for _, o := range h.l.cur.Load().outputs {
		if r.Level < o.Priority.Level() {
			continue
		}
		oh := o.h
		for _, w := range h.with {
			oh = w(oh)
		}
		if err := oh.Handle(ctx, r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WithAttrs implements slog.Handler.
func (h *handler) WithAttrs(as []slog.Attr) slog.Handler {
	return h.then(func(o slog.Handler) slog.Handler { return o.WithAttrs(as) })
}

// WithGroup implements slog.Handler.
func (h *handler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return h.then(func(o slog.Handler) slog.Handler { return o.WithGroup(name) })
}

func (h *handler) then(w func(slog.Handler) slog.Handler) *handler {
	return &handler{l: h.l, module: h.module, with: append(slices.Clip(h.with), w)}
}
