package conf_test

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/uri"
)

// values has one field of every kind a row can hold.
type values struct {
	S string
	I int
	P int // bounded below only
	U uint64
	F float64
	B bool
	L []string
}

func (v *values) keys() []conf.Key {
	return []conf.Key{
		conf.String("s", &v.S),
		conf.Int("i", &v.I, -5, 5),
		conf.Int("p", &v.P, 1),
		conf.Uint("u", &v.U),
		conf.Float("f", &v.F, 0, 1),
		conf.Bool("b", &v.B),
		conf.Strings("l", &v.L),
	}
}

// render writes v back in the dialect, through the rows' own formatters.
func (v *values) render() string {
	var b strings.Builder
	for _, k := range v.keys() {
		fmt.Fprintf(&b, "%s = %s\n", k.Name, k.Value())
	}
	return b.String()
}

func TestParse(t *testing.T) {
	accepted := []struct {
		text string
		want values
	}{
		{"", values{}},
		{"# only a comment\n\n", values{}},
		{"s = \"a b\"\r\n  i=-5\nu = 18446744073709551615\nf = 0.25\n", values{S: "a b", I: -5, U: 1<<64 - 1, F: 0.25}},
		{`s = ""`, values{}},
		{"s = \"# not a comment = still not\"", values{S: "# not a comment = still not"}},
		{"i = 1\ni = 2", values{I: 2}},
		{"p = 1", values{P: 1}},
		{"b = on", values{B: true}}, {"b = YES", values{B: true}}, {"b = y", values{B: true}},
		{"b = 1", values{B: true}}, {"b = True", values{B: true}}, {"b = t", values{B: true}},
		{"b = 1\nb = off", values{}}, {"b = 1\nb = No", values{}}, {"b = 1\nb = n", values{}},
		{"b = 1\nb = 0", values{}}, {"b = 1\nb = FALSE", values{}}, {"b = 1\nb = f", values{}},
		{"l = []", values{}},
		{"l = [ ]", values{}},
		{`l = ["a", "b"]`, values{L: []string{"a", "b"}}},
		{`l = ["a","b",]`, values{L: []string{"a", "b"}}},
		{`l = ["alice:pa,ss", "x]y", ""]`, values{L: []string{"alice:pa,ss", "x]y", ""}}},
		{"l = [\n  \"a\",\n  # about b ]\n\n  \"b\",\n]\ni = 3", values{L: []string{"a", "b"}, I: 3}},
		{"l = [\"a\",\n     \"b\"]\ni = 3", values{L: []string{"a", "b"}, I: 3}},
	}
	for _, tc := range accepted {
		var got values
		if _, err := conf.Parse(tc.text, got.keys()); err != nil {
			t.Errorf("Parse(%q): %v", tc.text, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.text, got, tc.want)
		}
	}

	// Every rejection names the line of the key that caused it.
	rejected := []struct{ text, want string }{
		{"i = 1\nno equals sign", "config line 2: missing '='"},
		{"\n\nwarp = 1", `config line 3: unknown key "warp"`},
		{"s = bare", "config line 1: s: expected a quoted string"},
		{`s = "a"b"`, "config line 1: s: expected a quoted string"},
		{`s = "a" # trailing`, "config line 1: s: expected a quoted string"},
		{`s = "`, "config line 1: s: expected a quoted string"},
		{"s =", "config line 1: s: expected a quoted string"},
		{"# c\ni = lots", "config line 2: i: expected an integer"},
		{"i = 1.5", "config line 1: i: expected an integer"},
		{"i = 6", "config line 1: i: 6 outside [-5, 5]"},
		{"p = 0", "config line 1: p: must be >= 1"},
		{"u = -1", "config line 1: u: expected a non-negative integer"},
		{"f = x", "config line 1: f: expected a number"},
		{"f = 1.5", "config line 1: f: 1.5 outside [0, 1]"},
		{"f = NaN", "config line 1: f: NaN outside [0, 1]"},
		{"i = 1\nb = maybe", "config line 2: b: expected a boolean"},
		{`l = "a"`, "config line 1: l: expected a [\"...\", \"...\"] list"},
		{"l = [oops]", "config line 1: l: expected a ["},
		{`l = ["a" "b"]`, "config line 1: l: expected a ["},
		{`l = ["a",,]`, "config line 1: l: expected a ["},
		{`l = [,]`, "config line 1: l: expected a ["},
		{`l = ["a"] x`, "config line 1: l: expected a ["},
		{"i = 1\nl = [\"a\",\n\"b\"", "config line 2: l: expected a ["},
		{"l = [\"a\nb\"]", "config line 1: l: expected a ["},
	}
	for _, tc := range rejected {
		var got values
		_, err := conf.Parse(tc.text, got.keys())
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want error starting %q", tc.text, err, tc.want)
		}
	}

	// Lines: where each key was set, for complaints made after parsing.
	var v values
	at, err := conf.Parse("# c\ns = \"x\"\nl = [\n\"a\",\n]\ni = 1", v.keys())
	if err != nil || !reflect.DeepEqual(at, conf.Lines{"s": 2, "l": 3, "i": 6}) {
		t.Fatalf("lines = %v, %v", at, err)
	}
	if got := at.Errorf("l", "bad %d", 7).Error(); got != "config line 3: l: bad 7" {
		t.Errorf("Errorf with a line = %q", got)
	}
	if got := conf.Lines(nil).Errorf("l", "bad").Error(); got != "l: bad" {
		t.Errorf("Errorf without a line = %q", got)
	}
}

// TestSetLive: a live row takes the text a file line would hold, with
// the complaint Parse makes minus the line; a row not marked live, or
// none at all, refuses. Value writes back what SetLive takes.
func TestSetLive(t *testing.T) {
	v := values{P: 1} // p's bound excludes the zero value
	keys := v.keys()
	for i := range keys {
		if keys[i].Name != "s" {
			keys[i] = conf.Live(keys[i])
		}
	}
	for name, text := range map[string]string{"i": "-3", "l": `["a", "b,c"]`, "f": "0.5", "b": "on"} {
		if err := conf.SetLive(keys, name, text); err != nil {
			t.Errorf("SetLive(%s, %s): %v", name, text, err)
		}
	}
	if want := (values{I: -3, P: 1, L: []string{"a", "b,c"}, F: 0.5, B: true}); !reflect.DeepEqual(v, want) {
		t.Errorf("after SetLive: %+v, want %+v", v, want)
	}
	for _, k := range keys {
		if err := conf.SetLive(keys, k.Name, k.Value()); k.Live && err != nil {
			t.Errorf("%s: its own Value %q does not set: %v", k.Name, k.Value(), err)
		}
	}
	for _, tc := range []struct{ name, text string }{{"i", "6"}, {"p", "0"}, {"l", "[oops]"}, {"b", "maybe"}} {
		_, fileErr := conf.Parse(tc.name+" = "+tc.text, new(values).keys())
		err := conf.SetLive(keys, tc.name, tc.text)
		if err == nil || "config line 1: "+err.Error() != fileErr.Error() {
			t.Errorf("SetLive(%s, %s) = %v, want %q minus the line", tc.name, tc.text, err, fileErr)
		}
	}
	if err := conf.SetLive(keys, "s", `"x"`); err == nil || err.Error() != "s: read at start-up only" {
		t.Errorf("non-live row: %v", err)
	}
	if err := conf.SetLive(keys, "warp", "1"); err == nil || err.Error() != `unknown key "warp"` {
		t.Errorf("unknown key: %v", err)
	}
}

// shipped pairs each sample file with the key table of the program that
// reads it.
var shipped = []struct {
	file  string
	keys  func() []conf.Key
	parse func(text string) error
}{
	{"govirtd.conf",
		func() []conf.Key { c := daemon.DefaultConfig(); return c.Keys(new([]string)) },
		func(text string) error { _, err := daemon.ParseConfig(text); return err }},
	{"fleet.conf",
		func() []conf.Key { c := fleet.DefaultFileConfig(); return c.Keys() },
		func(text string) error { _, err := fleet.ParseFileConfig(text); return err }},
	{"client.conf",
		func() []conf.Key { return uri.AliasKeys(new([]string)) },
		func(text string) error { _, err := uri.ParseAliases(text); return err }},
}

func readShipped(t testing.TB, file string) string {
	text, err := os.ReadFile("../../configs/" + file)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestShippedConfigs parses every sample file, and holds the sample
// files and the key tables to each other: every row is shown, live or
// commented out, in its sample file, and every "key =" line there has a
// row.
func TestShippedConfigs(t *testing.T) {
	keyLine := regexp.MustCompile(`(?m)^(?:# ?)?([a-z][a-z0-9_]*) = `)
	total := 0
	for _, s := range shipped {
		text := readShipped(t, s.file)
		if err := s.parse(text); err != nil {
			t.Errorf("%s: %v", s.file, err)
		}
		var shown []string
		for _, m := range keyLine.FindAllStringSubmatch(text, -1) {
			shown = append(shown, m[1])
		}
		keys := s.keys()
		total += len(keys)
		for _, k := range keys {
			if !slices.Contains(shown, k.Name) {
				t.Errorf("%s: key %q has a row but no line in the sample file", s.file, k.Name)
			}
		}
		for _, name := range shown {
			if !slices.ContainsFunc(keys, func(k conf.Key) bool { return k.Name == name }) {
				t.Errorf("%s: sample line %q has no row in the key table", s.file, name)
			}
		}
	}
	if total != 29+15+1 {
		t.Errorf("%d keys in the three tables, want 29 + 15 + 1", total)
	}

	// The two-line qos_classes example govirtd.conf prints, un-commented.
	example := regexp.MustCompile(`(?m)^# (qos_classes = \[.*\n)#( +".*\]\n)`).FindStringSubmatch(readShipped(t, "govirtd.conf"))
	if example == nil {
		t.Fatal("govirtd.conf no longer prints a two-line qos_classes example")
	}
	cfg, err := daemon.ParseConfig(example[1] + example[2])
	if err != nil || len(cfg.QoSClasses) != 2 {
		t.Errorf("un-commented qos_classes example: %d classes, %v", len(cfg.QoSClasses), err)
	}
}

// TestOneDialect pins what the three hand-copied parsers disagreed on:
// every file takes every boolean spelling, lists that span lines and
// commas inside quoted elements, and still names the line of a value
// that is none of them.
func TestOneDialect(t *testing.T) {
	d, err := daemon.ParseConfig("listen_tcp = on\nsasl_credentials = [\"alice:pa,ss\",\n  \"bob:x\",\n]\n")
	if err != nil || !d.ListenTCP || d.SASLCredentials["alice"] != "pa,ss" || d.SASLCredentials["bob"] != "x" {
		t.Errorf("govirtd.conf: listen_tcp=%v credentials=%v, %v", d.ListenTCP, d.SASLCredentials, err)
	}
	f, err := fleet.ParseFileConfig("migrate_postcopy = 1\nhosts = [\n  \"test:///a\",\n  \"test:///b\"\n]\n")
	if err != nil || !f.MigratePostCopy || len(f.Hosts) != 2 {
		t.Errorf("fleet.conf: migrate_postcopy=%v hosts=%v, %v", f.MigratePostCopy, f.Hosts, err)
	}
	a, err := uri.ParseAliases(`uri_aliases = ["lab=test:///default", "x=test:///default?a=1,2"]`)
	if err != nil || a["x"] != "test:///default?a=1,2" {
		t.Errorf("client.conf: %v, %v", a, err)
	}
	_, errD := daemon.ParseConfig("log_level = 1\nlisten_tcp = maybe")
	_, errF := fleet.ParseFileConfig("\nmigrate_postcopy = 2")
	_, errA := uri.ParseAliases("# c\n\nuri_aliases = [\n\"noequals\"]")
	for want, err := range map[string]error{
		"daemon: config line 2: listen_tcp: expected a boolean":      errD,
		"fleet: config line 2: migrate_postcopy: expected a boolean": errF,
		"uri: config line 3: uri_aliases: entries are \"":            errA,
	} {
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("got %v, want error starting %q", err, want)
		}
	}
}

// FuzzParse feeds arbitrary documents, seeded with the shipped ones,
// through the three real key tables and through a table of every kind:
// no input may panic or hang, and an accepted document, rendered back
// from the values it set, parses to those values again.
func FuzzParse(f *testing.F) {
	for _, s := range shipped {
		f.Add(readShipped(f, s.file))
	}
	f.Add("s = \"x\"\ni = -3\np = 7\nu = 9\nf = 0.5\nb = on\nl = [\"a\",\n \"b,c\",]\n")
	f.Fuzz(func(t *testing.T, text string) {
		for _, s := range shipped {
			_ = s.parse(text)
		}
		first, second := values{P: 1}, values{P: 1} // p's bound excludes the zero value
		if _, err := conf.Parse(text, first.keys()); err != nil {
			return
		}
		if _, err := conf.Parse(first.render(), second.keys()); err != nil {
			t.Fatalf("accepted %q, but its rendering %q fails: %v", text, first.render(), err)
		}
		if first.render() != second.render() {
			t.Fatalf("%q rendered %q, which parsed to %q", text, first.render(), second.render())
		}
	})
}
