package admin_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestQoSAdminGetSetRoundTrip(t *testing.T) {
	td := startDaemon(t)
	srv, _ := td.d.Server("govirtd")

	// Fresh daemon: admission control is off.
	if got := td.settings(t, "govirtd", "qos_classes"); got["qos_classes"] != "[]" || srv.QoS() != nil {
		t.Fatalf("QoS enabled on a fresh daemon: %v", got)
	}

	// Install two classes live and read them back.
	classes := `["gold rate_limit_calls_per_s=500 burst=100 priority=8 users=alice", ` +
		`"bronze rate_limit_calls_per_s=20 max_inflight_calls=4 users=bob"]`
	if err := td.set("govirtd", "qos_classes", classes, "qos_shed_watermark", "64"); err != nil {
		t.Fatal(err)
	}
	got := td.settings(t, "govirtd", "qos_classes", "qos_shed_watermark")
	if got["qos_classes"] != classes || got["qos_shed_watermark"] != "64" {
		t.Fatalf("settings after set: %v", got)
	}
	eng := srv.QoS()
	if eng == nil || eng.ShedWatermark() != 64 {
		t.Fatal("engine not installed")
	}
	// The engine synthesizes the implicit default class alongside the
	// two configured ones; every class starts with clean accounting.
	gauges := td.gauges(t)
	for _, class := range []string{"gold", "bronze", "default"} {
		if n, ok := gauges[`daemon_qos_inflight{class="`+class+`"}`]; !ok || n != 0 {
			t.Errorf("class %s: inflight gauge %d, present %v", class, n, ok)
		}
	}

	// A malformed spec is rejected wholesale; the previous engine stays.
	if err := td.set("govirtd", "qos_classes", `["bad"]`); !core.IsCode(err, core.ErrInvalidArg) ||
		!strings.Contains(err.Error(), "qos_classes:") {
		t.Fatalf("malformed spec: %v", err)
	}
	// Nor does a change elsewhere rebuild it: its accounting carries on.
	if err := td.set("govirtd", "max_workers", "12"); err != nil {
		t.Fatal(err)
	}
	if srv.QoS() != eng {
		t.Fatal("engine replaced by a failed or unrelated set")
	}

	// An empty class list removes the engine entirely.
	if err := td.set("govirtd", "qos_classes", "[]"); err != nil {
		t.Fatal(err)
	}
	if srv.QoS() != nil {
		t.Fatal("QoS still enabled after disable")
	}

	// Unknown server fails cleanly.
	if err := td.set("ghost", "qos_classes", "[]"); !core.IsCode(err, core.ErrAdmin) {
		t.Fatalf("unknown server: %v", err)
	}
}
