package daemon

import (
	"strings"
	"testing"
)

func TestQoSConfigParse(t *testing.T) {
	text := `
qos_classes = ["gold rate_limit_calls_per_s=500 burst=100 priority=8 users=alice", "bronze rate_limit_calls_per_s=20 max_inflight_calls=4"]
qos_shed_watermark = 64
`
	cfg, err := ParseConfig(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.QoSClasses) != 2 || !strings.HasPrefix(cfg.QoSClasses[0], "gold ") {
		t.Fatalf("classes %v", cfg.QoSClasses)
	}
	if cfg.QoSShedWatermark != 64 {
		t.Fatalf("watermark %d", cfg.QoSShedWatermark)
	}
	// Default: no classes, watermark present but inert.
	def := DefaultConfig()
	if len(def.QoSClasses) != 0 || def.QoSShedWatermark != 128 {
		t.Fatalf("defaults %v %d", def.QoSClasses, def.QoSShedWatermark)
	}
}

func TestQoSConfigValidateErrors(t *testing.T) {
	// Bad class specs are rejected at parse time with the line number of
	// the qos_classes key, matching the style of other key validation.
	cases := []struct {
		text string
		want string
	}{
		{
			"log_level = 1\n" +
				`qos_classes = ["gold rate_limit_calls_per_s=5", "gold rate_limit_calls_per_s=9"]`,
			`config line 2: qos_classes: qos: duplicate class "gold"`,
		},
		{
			`qos_classes = ["gold rate_limit_calls_per_s=0"]`,
			"config line 1: qos_classes:",
		},
		{
			`qos_classes = ["gold rate_limit_calls_per_s=5 bogus=1"]`,
			`unknown key "bogus"`,
		},
		{
			"qos_shed_watermark = -1",
			"config line 1: qos_shed_watermark: must be non-negative",
		},
	}
	for _, tc := range cases {
		_, err := ParseConfig(tc.text)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseConfig(%q) = %v, want error containing %q", tc.text, err, tc.want)
		}
	}

	// Programmatic configs (no source text) get the same rejection
	// without a line number.
	cfg := DefaultConfig()
	cfg.QoSClasses = []string{"gold rate_limit_calls_per_s=-2"}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "qos_classes:") {
		t.Errorf("programmatic Validate = %v", err)
	}
}
