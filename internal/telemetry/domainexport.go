// Rendering of per-domain metric families in the Prometheus text
// exposition format. Shared by the DomainCollector (one host) and the
// fleet-wide aggregated scrape in virtfleetx (many hosts, one family
// header per family, host="..." extra labels) — exposition rules demand
// all samples of a family stay together, so aggregation must happen
// family-by-family, not host-by-host.
package telemetry

import "strconv"

// domainFamily describes one govirt_domain_* metric family.
type domainFamily struct {
	name string
	kind string
	help string
	// value appends the sample value for one row.
	value func(dst []byte, r *DomainRow) []byte
	// stateLabel marks the family carrying the state string label.
	stateLabel bool
}

var domainFamilies = []domainFamily{
	{
		name: "govirt_domain_info", kind: "gauge",
		help:       "Per-domain identity row; value is always 1.",
		value:      func(dst []byte, _ *DomainRow) []byte { return append(dst, '1') },
		stateLabel: true,
	},
	{
		name: "govirt_domain_state", kind: "gauge",
		help: "Domain lifecycle state code (0=no state 1=running 2=blocked 3=paused 4=in shutdown 5=shut off 6=crashed 7=pmsuspended).",
		value: func(dst []byte, r *DomainRow) []byte {
			return strconv.AppendInt(dst, int64(r.State), 10)
		},
	},
	{
		name: "govirt_domain_vcpus", kind: "gauge",
		help: "Virtual CPUs assigned to the domain.",
		value: func(dst []byte, r *DomainRow) []byte {
			return strconv.AppendInt(dst, int64(r.VCPUs), 10)
		},
	},
	{
		name: "govirt_domain_memory_bytes", kind: "gauge",
		help: "Current memory allocated to the domain.",
		value: func(dst []byte, r *DomainRow) []byte {
			return appendUint(dst, r.MemKiB*1024)
		},
	},
	{
		name: "govirt_domain_memory_max_bytes", kind: "gauge",
		help: "Maximum memory allowed for the domain.",
		value: func(dst []byte, r *DomainRow) []byte {
			return appendUint(dst, r.MaxMemKiB*1024)
		},
	},
	{
		name: "govirt_domain_cpu_seconds_total", kind: "counter",
		help: "CPU time consumed by the domain.",
		value: func(dst []byte, r *DomainRow) []byte {
			return appendSeconds(dst, r.CPUTimeNs)
		},
	},
	{
		name: "govirt_domain_uptime_seconds", kind: "gauge",
		help: "Time the collector has observed the domain in an up state; 0 when down.",
		value: func(dst []byte, r *DomainRow) []byte {
			return appendSeconds(dst, r.UptimeNs)
		},
	},
}

// AppendDomainExposition renders every per-domain family for the given
// row sets into dst and returns it. Each family is emitted exactly once
// with its HELP/TYPE header followed by all sets' samples, so the output
// is spec-compliant however many hosts are aggregated. A row without its
// identity clause gets it filled in, in place, for these labels, and
// keeps it: render a row with one label set only.
func AppendDomainExposition(dst []byte, sets []DomainRowSet, labels DomainLabelSet) []byte {
	for si := range sets {
		rows := sets[si].Rows
		for ri := range rows {
			if rows[ri].ident == "" {
				rows[ri].ident = domainIdent(rows[ri].Name, rows[ri].UUID, labels.UUID)
			}
		}
	}
	for fi := range domainFamilies {
		f := &domainFamilies[fi]
		withState := f.stateLabel && labels.State
		dst = appendFamilyHeader(dst, f.name, f.kind, f.help)
		for si := range sets {
			set := &sets[si]
			for ri := range set.Rows {
				r := &set.Rows[ri]
				dst = append(dst, f.name...)
				dst = appendDomainLabels(dst, r, withState, set.Extra)
				dst = append(dst, ' ')
				dst = f.value(dst, r)
				dst = append(dst, '\n')
			}
		}
	}
	// Per-set cardinality accounting: exported row count and the
	// cumulative number of rows dropped by the cap.
	dst = appendFamilyHeader(dst, "govirt_domains", "gauge",
		"Domains exported in the last sweep.")
	for si := range sets {
		dst = appendSetSample(dst, "govirt_domains", sets[si].Extra, uint64(len(sets[si].Rows)))
	}
	dst = appendFamilyHeader(dst, "govirt_domains_truncated_total", "counter",
		"Domain rows dropped by the max-domain cardinality cap.")
	for si := range sets {
		dst = appendSetSample(dst, "govirt_domains_truncated_total", sets[si].Extra, sets[si].Truncated)
	}
	return dst
}

// appendSetSample writes one per-set sample with its optional extra
// label clause.
func appendSetSample(dst []byte, name, extra string, v uint64) []byte {
	dst = append(dst, name...)
	if extra != "" {
		dst = append(dst, '{')
		dst = append(dst, extra...)
		dst = append(dst, '}')
	}
	dst = append(dst, ' ')
	dst = appendUint(dst, v)
	return append(dst, '\n')
}

// domainIdent renders a row's identity clause: the escaped domain name
// and, with the uuid label on, the escaped uuid.
func domainIdent(name, uuid string, withUUID bool) string {
	if withUUID {
		return Labels("domain", name, "uuid", uuid)
	}
	return Labels("domain", name)
}

// appendDomainLabels writes the label clause for one row: its identity
// clause as is, the state when asked for, then the set's extra clause.
func appendDomainLabels(dst []byte, r *DomainRow, withState bool, extra string) []byte {
	dst = append(dst, '{')
	dst = append(dst, r.ident...)
	if withState {
		dst = append(dst, `,state="`...)
		dst = appendEscapedLabelValue(dst, r.State.String())
		dst = append(dst, '"')
	}
	if extra != "" {
		dst = append(dst, ',')
		dst = append(dst, extra...)
	}
	return append(dst, '}')
}

// appendUint is strconv.AppendUint base 10.
func appendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// appendSeconds renders nanoseconds as a decimal seconds literal with
// no float artefacts (1_000 ns → "0.000001"), allocation-free.
func appendSeconds(dst []byte, ns uint64) []byte {
	whole := ns / 1_000_000_000
	frac := ns % 1_000_000_000
	dst = appendUint(dst, whole)
	if frac == 0 {
		return dst
	}
	var digits [9]byte
	for i := 8; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := 9
	for n > 0 && digits[n-1] == '0' {
		n--
	}
	dst = append(dst, '.')
	return append(dst, digits[:n]...)
}
