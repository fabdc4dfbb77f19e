// Command virshx is the interactive management client — the virsh
// equivalent. It connects to any URI the library supports (local driver
// or remote daemon) and exposes domain, network, storage and migration
// commands uniformly across hypervisors.
//
// Usage:
//
//	virshx -c URI <command> [args...]
//	virshx -c URI help
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/drivers/xen"
	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/migrate"
	"repro/internal/uri"
)

type command struct {
	name    string
	summary string
	usage   string
	minArgs int
	run     func(conn *core.Connect, args []string) error
}

var commands []command

func init() {
	commands = []command{
		{"list", "list domains (--all includes inactive)", "list [--all]", 0, cmdList},
		{"dominfo", "show a domain's basic information", "dominfo <domain>", 1, cmdDomInfo},
		{"domstats", "show a domain's monitoring statistics", "domstats <domain>", 1, cmdDomStats},
		{"define", "define a domain from an XML file", "define <file.xml>", 1, cmdDefine},
		{"undefine", "remove a domain definition", "undefine <domain>", 1, domainOp((*core.Domain).Undefine, "undefined")},
		{"start", "start a defined domain", "start <domain>", 1, domainOp((*core.Domain).Create, "started")},
		{"shutdown", "gracefully shut a domain down", "shutdown <domain>", 1, domainOp((*core.Domain).Shutdown, "is being shut down")},
		{"destroy", "forcefully stop a domain", "destroy <domain>", 1, domainOp((*core.Domain).Destroy, "destroyed")},
		{"reboot", "reboot a domain", "reboot <domain>", 1, domainOp((*core.Domain).Reboot, "rebooted")},
		{"suspend", "pause a domain", "suspend <domain>", 1, domainOp((*core.Domain).Suspend, "suspended")},
		{"resume", "unpause a domain", "resume <domain>", 1, domainOp((*core.Domain).Resume, "resumed")},
		{"dumpxml", "print a domain's XML definition", "dumpxml <domain>", 1, cmdDumpXML},
		{"setmem", "balloon a domain's memory", "setmem <domain> <KiB>", 2, cmdSetMem},
		{"setvcpus", "change a domain's vCPU count", "setvcpus <domain> <count>", 2, cmdSetVCPUs},
		{"migrate", "live-migrate a domain to another URI", "migrate <domain> <dest-uri> [bandwidthMBps [maxDowntimeMs]] [--streams N] [--auto-converge] [--postcopy]", 2, cmdMigrate},
		{"snapshot-create", "snapshot a domain's current state", "snapshot-create <domain> [name]", 1, cmdSnapshotCreate},
		{"snapshot-list", "list a domain's snapshots", "snapshot-list <domain>", 1, cmdSnapshotList},
		{"snapshot-revert", "revert a domain to a snapshot", "snapshot-revert <domain> <snapshot>", 2, cmdSnapshotRevert},
		{"snapshot-delete", "delete a snapshot", "snapshot-delete <domain> <snapshot>", 2, cmdSnapshotDelete},
		{"snapshot-dumpxml", "print a snapshot's description", "snapshot-dumpxml <domain> <snapshot>", 2, cmdSnapshotDumpXML},
		{"managedsave", "save a running domain's state to the host", "managedsave <domain>", 1, cmdManagedSave},
		{"managedsave-remove", "discard a managed save image", "managedsave-remove <domain>", 1, cmdManagedSaveRemove},
		{"clone", "clone a domain's definition under a new name", "clone <domain> <new-name>", 2, cmdClone},
		{"vol-clone", "clone a storage volume within its pool", "vol-clone <pool> <volume> <new-name>", 3, cmdVolClone},
		{"attach-device", "hot-plug a device from an XML file", "attach-device <domain> <file.xml>", 2, cmdAttachDevice},
		{"detach-device", "remove a device described by an XML file", "detach-device <domain> <file.xml>", 2, cmdDetachDevice},
		{"watch", "tail a sequenced watch stream (gap-detecting)", "watch [seconds [domain]]", 0, cmdWatch},
		{"net-list", "list virtual networks", "net-list", 0, cmdNetList},
		{"net-define", "define a network from an XML file", "net-define <file.xml>", 1, cmdNetDefine},
		{"net-start", "start a network", "net-start <network>", 1, connOp(func(c *core.Connect, n string) error { return c.StartNetwork(n) }, "started")},
		{"net-stop", "stop a network", "net-stop <network>", 1, connOp(func(c *core.Connect, n string) error { return c.StopNetwork(n) }, "stopped")},
		{"net-undefine", "remove a network definition", "net-undefine <network>", 1, connOp(func(c *core.Connect, n string) error { return c.UndefineNetwork(n) }, "undefined")},
		{"net-dumpxml", "print a network's XML", "net-dumpxml <network>", 1, cmdNetDumpXML},
		{"net-dhcp-leases", "list a network's DHCP leases", "net-dhcp-leases <network>", 1, cmdNetLeases},
		{"pool-list", "list storage pools", "pool-list", 0, cmdPoolList},
		{"pool-define", "define a pool from an XML file", "pool-define <file.xml>", 1, cmdPoolDefine},
		{"pool-start", "start a pool", "pool-start <pool>", 1, connOp(func(c *core.Connect, n string) error { return c.StartStoragePool(n) }, "started")},
		{"pool-stop", "stop a pool", "pool-stop <pool>", 1, connOp(func(c *core.Connect, n string) error { return c.StopStoragePool(n) }, "stopped")},
		{"pool-info", "show a pool's space accounting", "pool-info <pool>", 1, cmdPoolInfo},
		{"vol-list", "list volumes in a pool", "vol-list <pool>", 1, cmdVolList},
		{"vol-create", "create a volume from an XML file", "vol-create <pool> <file.xml>", 2, cmdVolCreate},
		{"vol-delete", "delete a volume", "vol-delete <pool> <volume>", 2, cmdVolDelete},
		{"nodeinfo", "show host node information", "nodeinfo", 0, cmdNodeInfo},
		{"capabilities", "print the capabilities document", "capabilities", 0, cmdCapabilities},
		{"hostname", "print the managed host's name", "hostname", 0, cmdHostname},
		{"version", "print the hypervisor version", "version", 0, cmdVersion},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	uriStr := "test:///default"
	if len(args) >= 2 && args[0] == "-c" {
		uriStr = args[1]
		args = args[2:]
	}
	if len(args) == 0 || args[0] == "help" {
		printHelp()
		return nil
	}
	uriStr = resolveAlias(uriStr)
	registerDrivers()
	if args[0] == "shell" {
		return runShell(uriStr, os.Stdin)
	}
	conn, err := core.Open(uriStr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return dispatch(conn, args)
}

// dispatch resolves and runs one command against an open connection.
func dispatch(conn *core.Connect, args []string) error {
	var cmd *command
	for i := range commands {
		if commands[i].name == args[0] {
			cmd = &commands[i]
			break
		}
	}
	if cmd == nil {
		return fmt.Errorf("unknown command %q (try \"help\")", args[0])
	}
	if len(args)-1 < cmd.minArgs {
		return fmt.Errorf("usage: virshx %s", cmd.usage)
	}
	return cmd.run(conn, args[1:])
}

// runShell is the interactive mode: one persistent connection, commands
// read line by line, so state (definitions, snapshots) carries across
// commands within the session.
func runShell(uriStr string, in io.Reader) error {
	conn, err := core.Open(uriStr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("Welcome to virshx, the virtualization interactive terminal.\n")
	fmt.Printf("Connected to %s. Type 'help' for commands, 'quit' to leave.\n\n", uriStr)
	scanner := bufio.NewScanner(in)
	for {
		fmt.Print("virshx # ")
		if !scanner.Scan() {
			fmt.Println()
			return scanner.Err()
		}
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return nil
		case "help":
			printHelp()
			continue
		}
		if err := dispatch(conn, fields); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

// resolveAlias expands -c values through the uri_aliases table of the
// client configuration file named by $VIRSHX_CONFIG (the libvirt.conf
// equivalent). Unknown names and real URIs pass through unchanged.
func resolveAlias(s string) string {
	path := os.Getenv("VIRSHX_CONFIG")
	if path == "" {
		return s
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: cannot read %s: %v\n", path, err)
		return s
	}
	aliases, err := uri.ParseAliases(string(data))
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		return s
	}
	if full, ok := aliases[s]; ok {
		return full
	}
	return s
}

func registerDrivers() {
	log := logging.NewQuiet(logging.Error)
	drvtest.Register(log)
	qemu.Register(log)
	xen.Register(log)
	lxc.Register(log)
	remote.Register()
}

func printHelp() {
	fmt.Println("virshx — uniform virtualization management client")
	fmt.Println("usage: virshx [-c URI] <command> [args...]")
	fmt.Println()
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	sort.Strings(names)
	for _, n := range names {
		for _, c := range commands {
			if c.name == n {
				fmt.Printf("  %-17s %s\n", c.name, c.summary)
			}
		}
	}
}

func domainOp(op func(*core.Domain) error, done string) func(*core.Connect, []string) error {
	return func(conn *core.Connect, args []string) error {
		dom, err := conn.LookupDomain(args[0])
		if err != nil {
			return err
		}
		if err := op(dom); err != nil {
			return err
		}
		fmt.Printf("Domain %s %s\n", args[0], done)
		return nil
	}
}

func connOp(op func(*core.Connect, string) error, done string) func(*core.Connect, []string) error {
	return func(conn *core.Connect, args []string) error {
		if err := op(conn, args[0]); err != nil {
			return err
		}
		fmt.Printf("%s %s\n", args[0], done)
		return nil
	}
}

func cmdList(conn *core.Connect, args []string) error {
	flags := core.ListActive
	if len(args) > 0 && args[0] == "--all" {
		flags = 0
	}
	doms, err := conn.ListAllDomains(flags)
	if err != nil {
		return err
	}
	fmt.Printf(" %-5s %-20s %s\n %s\n", "Id", "Name", "State", "---------------------------------")
	for _, d := range doms {
		st, err := d.State()
		if err != nil {
			return err
		}
		id := "-"
		if d.ID() > 0 {
			id = strconv.Itoa(d.ID())
		}
		fmt.Printf(" %-5s %-20s %s\n", id, d.Name(), st)
	}
	return nil
}

func cmdDomInfo(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	info, err := dom.Info()
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %s\n", "Name:", dom.Name())
	fmt.Printf("%-15s %s\n", "UUID:", dom.UUID())
	fmt.Printf("%-15s %s\n", "State:", info.State)
	fmt.Printf("%-15s %d\n", "CPU(s):", info.VCPUs)
	fmt.Printf("%-15s %.1fs\n", "CPU time:", float64(info.CPUTimeNs)/1e9)
	fmt.Printf("%-15s %d KiB\n", "Max memory:", info.MaxMemKiB)
	fmt.Printf("%-15s %d KiB\n", "Used memory:", info.MemKiB)
	return nil
}

func cmdDomStats(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	st, err := dom.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("%s:\n", dom.Name())
	fmt.Printf("  state          %s\n", st.State)
	fmt.Printf("  cpu time       %.3fs\n", float64(st.CPUTimeNs)/1e9)
	fmt.Printf("  memory         %d/%d KiB\n", st.MemKiB, st.MaxMemKiB)
	fmt.Printf("  vcpus          %d\n", st.VCPUs)
	fmt.Printf("  block rd/wr    %d/%d reqs, %d/%d bytes\n", st.RdReqs, st.WrReqs, st.RdBytes, st.WrBytes)
	fmt.Printf("  net rx/tx      %d/%d pkts, %d/%d bytes\n", st.RxPkts, st.TxPkts, st.RxBytes, st.TxBytes)
	fmt.Printf("  dirty pages    %d\n", st.DirtyPages)
	return nil
}

func cmdDefine(conn *core.Connect, args []string) error {
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	dom, err := conn.DefineDomain(string(data))
	if err != nil {
		return err
	}
	fmt.Printf("Domain %s defined (UUID %s)\n", dom.Name(), dom.UUID())
	return nil
}

func cmdDumpXML(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	xml, err := dom.XML()
	if err != nil {
		return err
	}
	fmt.Print(xml)
	return nil
}

func cmdSetMem(conn *core.Connect, args []string) error {
	kib, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad memory size %q", args[1])
	}
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	return dom.SetMemory(kib)
}

func cmdSetVCPUs(conn *core.Connect, args []string) error {
	n, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("bad vcpu count %q", args[1])
	}
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	return dom.SetVCPUs(n)
}

func cmdMigrate(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	dst, err := core.Open(args[1])
	if err != nil {
		return err
	}
	defer dst.Close()
	opts := core.MigrateOptions{}
	pos := 0
	for i := 2; i < len(args); i++ {
		switch args[i] {
		case "--streams":
			if i+1 >= len(args) {
				return fmt.Errorf("--streams needs a value")
			}
			n, err := strconv.Atoi(args[i+1])
			if err != nil || n < 1 {
				return fmt.Errorf("--streams: bad value %q", args[i+1])
			}
			opts.ParallelStreams = n
			i++
		case "--auto-converge":
			opts.AutoConverge = true
		case "--postcopy":
			opts.PostCopy = true
		default:
			n, err := strconv.ParseUint(args[i], 10, 64)
			if err != nil {
				return fmt.Errorf("bad argument %q", args[i])
			}
			switch pos {
			case 0:
				opts.BandwidthMBps = n
			case 1:
				opts.MaxDowntimeMs = n
			default:
				return fmt.Errorf("too many arguments")
			}
			pos++
		}
	}
	res, err := migrate.Migrate(dom, dst, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Migration complete (%s, %d stream(s)): %d iterations, %.1f ms total, %.1f ms downtime, %d KiB transferred, converged=%v\n",
		res.Mode, res.Streams, res.Iterations, res.TotalTimeMs(), res.DowntimeMs(), res.TransferredKiB, res.Converged)
	if res.ThrottleSteps > 0 {
		fmt.Printf("Auto-convergence throttled the source %d step(s), peaking at %.0f%%\n",
			res.ThrottleSteps, res.MaxThrottle*100)
	}
	if res.Mode == migrate.ModePostCopy {
		fmt.Printf("Post-copy pulled %d faulted page(s) after switch-over\n", res.PostCopyFaults)
	}
	if res.RetransmitKiB > 0 {
		fmt.Printf("Retransmitted %d KiB after stream loss\n", res.RetransmitKiB)
	}
	return nil
}

func cmdClone(conn *core.Connect, args []string) error {
	clone, err := core.CloneDomain(conn, args[0], args[1])
	if err != nil {
		return err
	}
	fmt.Printf("Clone of domain %s created: %s (UUID %s)\n", args[0], clone.Name(), clone.UUID())
	return nil
}

func cmdVolClone(conn *core.Connect, args []string) error {
	if err := core.CloneVolume(conn, args[0], args[1], args[2]); err != nil {
		return err
	}
	fmt.Printf("Volume %s cloned to %s in pool %s\n", args[1], args[2], args[0])
	return nil
}

func cmdAttachDevice(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	data, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	if err := dom.AttachDevice(string(data)); err != nil {
		return err
	}
	fmt.Println("Device attached successfully")
	return nil
}

func cmdDetachDevice(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	data, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	if err := dom.DetachDevice(string(data)); err != nil {
		return err
	}
	fmt.Println("Device detached successfully")
	return nil
}

func cmdSnapshotCreate(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	xml := ""
	if len(args) > 1 {
		xml = fmt.Sprintf("<domainsnapshot><name>%s</name></domainsnapshot>", args[1])
	}
	name, err := dom.CreateSnapshot(xml)
	if err != nil {
		return err
	}
	fmt.Printf("Domain snapshot %s created\n", name)
	return nil
}

func cmdSnapshotList(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	snaps, err := dom.ListSnapshots()
	if err != nil {
		return err
	}
	for _, s := range snaps {
		fmt.Println(s)
	}
	return nil
}

func cmdSnapshotRevert(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	if err := dom.RevertSnapshot(args[1]); err != nil {
		return err
	}
	fmt.Printf("Domain %s reverted to snapshot %s\n", args[0], args[1])
	return nil
}

func cmdSnapshotDelete(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	if err := dom.DeleteSnapshot(args[1]); err != nil {
		return err
	}
	fmt.Printf("Domain snapshot %s deleted\n", args[1])
	return nil
}

func cmdSnapshotDumpXML(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	xml, err := dom.SnapshotXML(args[1])
	if err != nil {
		return err
	}
	fmt.Print(xml)
	return nil
}

func cmdManagedSave(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	if err := dom.ManagedSave(); err != nil {
		return err
	}
	fmt.Printf("Domain %s state saved by libvirt-style managed save\n", args[0])
	return nil
}

func cmdManagedSaveRemove(conn *core.Connect, args []string) error {
	dom, err := conn.LookupDomain(args[0])
	if err != nil {
		return err
	}
	if err := dom.ManagedSaveRemove(); err != nil {
		return err
	}
	fmt.Printf("Removed managed save image for domain %s\n", args[0])
	return nil
}

// cmdWatch tails a watch stream: on a remote connection it rides the
// sequenced EventSubscribe protocol, so dropped or coalesced frames are
// visible as flagged gaps instead of silently missing lines.
func cmdWatch(conn *core.Connect, args []string) error {
	secs := 2
	if len(args) > 0 {
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad duration %q", args[0])
		}
		secs = n
	}
	domain := ""
	if len(args) > 1 {
		domain = args[1]
	}
	handle, err := conn.WatchEvents(domain, nil, func(ev events.Event, gap bool) {
		if gap {
			fmt.Printf("gap        -- events lost; a consumer would resync here\n")
		}
		if ev.Type != 0 {
			fmt.Printf("watch %-10s domain %s (%s) seq %d\n", ev.Type, ev.Domain, ev.Detail, ev.Seq)
		}
	})
	if err != nil {
		return err
	}
	defer handle.Close() //nolint:errcheck
	fmt.Printf("watching stream for %ds...\n", secs)
	time.Sleep(time.Duration(secs) * time.Second)
	return nil
}

func cmdNetList(conn *core.Connect, args []string) error {
	nets, err := conn.ListNetworks()
	if err != nil {
		return err
	}
	fmt.Printf(" %-20s %s\n ------------------------------\n", "Name", "State")
	for _, n := range nets {
		active, err := conn.NetworkIsActive(n)
		if err != nil {
			return err
		}
		state := "inactive"
		if active {
			state = "active"
		}
		fmt.Printf(" %-20s %s\n", n, state)
	}
	return nil
}

func cmdNetDefine(conn *core.Connect, args []string) error {
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	return conn.DefineNetwork(string(data))
}

func cmdNetDumpXML(conn *core.Connect, args []string) error {
	xml, err := conn.NetworkXML(args[0])
	if err != nil {
		return err
	}
	fmt.Print(xml)
	return nil
}

func cmdNetLeases(conn *core.Connect, args []string) error {
	leases, err := conn.NetworkDHCPLeases(args[0])
	if err != nil {
		return err
	}
	fmt.Printf(" %-18s %-16s %s\n -----------------------------------------\n", "MAC", "IP", "Hostname")
	for _, l := range leases {
		fmt.Printf(" %-18s %-16s %s\n", l.MAC, l.IP, l.Hostname)
	}
	return nil
}

func cmdPoolList(conn *core.Connect, args []string) error {
	pools, err := conn.ListStoragePools()
	if err != nil {
		return err
	}
	fmt.Printf(" %-20s %s\n ------------------------------\n", "Name", "State")
	for _, p := range pools {
		info, err := conn.StoragePoolInfo(p)
		if err != nil {
			return err
		}
		state := "inactive"
		if info.Active {
			state = "active"
		}
		fmt.Printf(" %-20s %s\n", p, state)
	}
	return nil
}

func cmdPoolDefine(conn *core.Connect, args []string) error {
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	return conn.DefineStoragePool(string(data))
}

func cmdPoolInfo(conn *core.Connect, args []string) error {
	info, err := conn.StoragePoolInfo(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %s\n", "Name:", args[0])
	fmt.Printf("%-13s %v\n", "Active:", info.Active)
	fmt.Printf("%-13s %d KiB\n", "Capacity:", info.CapacityKiB)
	fmt.Printf("%-13s %d KiB\n", "Allocation:", info.AllocationKiB)
	fmt.Printf("%-13s %d KiB\n", "Available:", info.AvailableKiB)
	return nil
}

func cmdVolList(conn *core.Connect, args []string) error {
	vols, err := conn.ListVolumes(args[0])
	if err != nil {
		return err
	}
	for _, v := range vols {
		fmt.Println(v)
	}
	return nil
}

func cmdVolCreate(conn *core.Connect, args []string) error {
	data, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	return conn.CreateVolume(args[0], string(data))
}

func cmdVolDelete(conn *core.Connect, args []string) error {
	return conn.DeleteVolume(args[0], args[1])
}

func cmdNodeInfo(conn *core.Connect, args []string) error {
	ni, err := conn.NodeInfo()
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %s\n", "CPU model:", ni.Model)
	fmt.Printf("%-20s %d\n", "CPU(s):", ni.CPUs)
	fmt.Printf("%-20s %d MHz\n", "CPU frequency:", ni.MHz)
	fmt.Printf("%-20s %d\n", "CPU socket(s):", ni.Sockets)
	fmt.Printf("%-20s %d\n", "Core(s) per socket:", ni.Cores)
	fmt.Printf("%-20s %d\n", "Thread(s) per core:", ni.Threads)
	fmt.Printf("%-20s %d\n", "NUMA cell(s):", ni.NUMANodes)
	fmt.Printf("%-20s %d KiB\n", "Memory size:", ni.MemoryKiB)
	return nil
}

func cmdCapabilities(conn *core.Connect, args []string) error {
	caps, err := conn.CapabilitiesXML()
	if err != nil {
		return err
	}
	fmt.Print(caps)
	return nil
}

func cmdHostname(conn *core.Connect, args []string) error {
	hn, err := conn.Hostname()
	if err != nil {
		return err
	}
	fmt.Println(hn)
	return nil
}

func cmdVersion(conn *core.Connect, args []string) error {
	v, err := conn.Version()
	if err != nil {
		return err
	}
	t, err := conn.Type()
	if err != nil {
		return err
	}
	fmt.Printf("Driver: %s\nVersion: %s\n", t, v)
	return nil
}
