// Monitoring: non-intrusive fleet monitoring across heterogeneous
// hypervisors — the paper's motivating scenario. One monitoring loop
// watches a mixed fleet (full-virt qsim guests, paravirt xsim guests,
// csim containers) through the identical API, with lifecycle events
// pushed by the drivers and statistics polled hypervisor-side. No agent
// runs in any guest.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/xen"
	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/uri"
)

// host is one hypervisor under management.
type host struct {
	label string
	conn  *core.Connect
}

func main() {
	quiet := logging.NewQuiet(logging.Error)
	u := &uri.URI{Path: "/system"}

	// Three hosts running three different virtualization technologies.
	qdrv, err := qemu.New(u, quiet)
	if err != nil {
		log.Fatal(err)
	}
	xdrv, err := xen.New(u, quiet)
	if err != nil {
		log.Fatal(err)
	}
	cdrv, err := lxc.New(u, quiet)
	if err != nil {
		log.Fatal(err)
	}
	fleet := []host{
		{"kvm-host (qsim)", core.OpenWith(u, qdrv)},
		{"xen-host (xsim)", core.OpenWith(u, xdrv)},
		{"ct-host  (csim)", core.OpenWith(u, cdrv)},
	}

	// Subscribe to lifecycle events on every host before starting
	// anything, so the monitor sees the whole story.
	collector := events.NewCollector()
	record := collector.Callback()
	for _, h := range fleet {
		if _, err := h.conn.WatchEvents("", nil, func(ev events.Event, _ bool) { record(ev) }); err != nil {
			log.Fatal(err)
		}
	}

	// Provision an identical workload on each host through the same API.
	for _, h := range fleet {
		typ, _ := h.conn.Type()
		for i := 0; i < 3; i++ {
			xml := fmt.Sprintf(`
<domain type='%s'>
  <name>svc%d</name>
  <description>cpu_util=0.%d5 dirty_pages_sec=%d block_iops=%d net_pps=%d</description>
  <memory unit='MiB'>512</memory>
  <vcpu>2</vcpu>
  <os><type arch='x86_64'>hvm</type></os>
</domain>`, typ, i, i+2, (i+1)*500, (i+1)*100, (i+1)*400)
			dom, err := h.conn.DefineDomain(xml)
			if err != nil {
				log.Fatal(err)
			}
			if err := dom.Create(); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Let the simulated guests run for 10 modelled seconds.
	for _, h := range fleet {
		ma := h.conn.Driver().(core.MachineAccess)
		doms, _ := h.conn.ListAllDomains(core.ListActive)
		for _, d := range doms {
			m, err := ma.Machine(d.Name())
			if err != nil {
				log.Fatal(err)
			}
			m.RunFor(10_000_000_000)
		}
	}

	// One monitoring pass over the whole heterogeneous fleet.
	fmt.Printf("%-16s %-8s %-9s %-10s %-12s %-12s %s\n",
		"HOST", "DOMAIN", "STATE", "CPU(s)", "MEM KiB", "BLK REQS", "NET PKTS")
	for _, h := range fleet {
		doms, err := h.conn.ListAllDomains(core.ListActive)
		if err != nil {
			log.Fatal(err)
		}
		sort.Slice(doms, func(i, j int) bool { return doms[i].Name() < doms[j].Name() })
		for _, d := range doms {
			st, err := d.Stats()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-16s %-8s %-9s %-10.2f %-12d %-12d %d\n",
				h.label, d.Name(), st.State,
				float64(st.CPUTimeNs)/1e9, st.MemKiB,
				st.RdReqs+st.WrReqs, st.RxPkts+st.TxPkts)
		}
	}

	// Inject a failure on one host and show the event stream caught it.
	victimConn := fleet[0].conn
	ma := victimConn.Driver().(core.MachineAccess)
	m, err := ma.Machine("svc1")
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Crash(); err != nil {
		log.Fatal(err)
	}
	// Drivers notice crashes on the next state observation and push the
	// crash event to every subscriber.
	dom, _ := victimConn.LookupDomain("svc1")
	st, _ := dom.State()
	fmt.Printf("\nInjected failure: svc1 on %s is now %q\n", fleet[0].label, st)

	fmt.Printf("\nLifecycle events observed by the monitor (%d total):\n", collector.Len())
	byType := map[events.Type]int{}
	for _, ev := range collector.Events() {
		byType[ev.Type]++
	}
	for _, t := range []events.Type{events.EventDefined, events.EventStarted, events.EventCrashed} {
		fmt.Printf("  %-10s %d\n", t, byType[t])
	}
}
