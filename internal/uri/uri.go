// Package uri implements libvirt-style connection URIs of the form
//
//	driver[+transport]://[username@][hostname][:port]/[path][?extraparameters]
//
// The scheme's driver part selects which hypervisor driver to probe, the
// optional transport part selects how a remote daemon is reached, and the
// path carries driver-specific data ("/system", "/session").
package uri

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/conf"
)

// Transport identifies how a connection reaches the daemon.
type Transport string

// Supported transports. Empty means local/in-process dispatch unless the
// host part forces a remote connection.
const (
	TransportNone  Transport = ""
	TransportUnix  Transport = "unix"
	TransportTCP   Transport = "tcp"
	TransportTLS   Transport = "tls"
	TransportSSH   Transport = "ssh"
	TransportLocal Transport = "local"
	// TransportMem reaches an in-process daemon through a named memnet
	// endpoint (the URI host is the endpoint name). Used by the scale
	// harness to run very large simulated fleets in one process.
	TransportMem Transport = "mem"
)

var validTransports = map[Transport]bool{
	TransportUnix:  true,
	TransportTCP:   true,
	TransportTLS:   true,
	TransportSSH:   true,
	TransportLocal: true,
	TransportMem:   true,
}

// URI is a parsed connection URI.
type URI struct {
	Driver    string
	Transport Transport
	Username  string
	Host      string
	Port      int // 0 when absent
	Path      string
	Params    map[string]string
}

// Parse parses a connection URI string.
func Parse(s string) (*URI, error) {
	if s == "" {
		return nil, fmt.Errorf("uri: empty connection URI")
	}
	u, err := url.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("uri: %v", err)
	}
	if u.Scheme == "" {
		return nil, fmt.Errorf("uri: %q has no scheme", s)
	}
	out := &URI{Path: u.Path, Params: map[string]string{}}

	driver, transport, found := strings.Cut(u.Scheme, "+")
	out.Driver = driver
	if out.Driver == "" {
		return nil, fmt.Errorf("uri: %q has empty driver part", s)
	}
	if found {
		tr := Transport(transport)
		if !validTransports[tr] {
			return nil, fmt.Errorf("uri: %q: unknown transport %q", s, transport)
		}
		out.Transport = tr
	}

	if u.User != nil {
		out.Username = u.User.Username()
		if _, hasPwd := u.User.Password(); hasPwd {
			return nil, fmt.Errorf("uri: %q: passwords in URIs are not supported", s)
		}
	}
	out.Host = u.Hostname()
	if p := u.Port(); p != "" {
		port, err := strconv.Atoi(p)
		if err != nil || port <= 0 || port > 65535 {
			return nil, fmt.Errorf("uri: %q: invalid port %q", s, p)
		}
		out.Port = port
	}

	q, err := url.ParseQuery(u.RawQuery)
	if err != nil {
		return nil, fmt.Errorf("uri: %q: bad query: %v", s, err)
	}
	for k, vs := range q {
		if len(vs) > 1 {
			return nil, fmt.Errorf("uri: %q: repeated parameter %q", s, k)
		}
		out.Params[k] = vs[0]
	}

	// A remote transport without a host is only meaningful for unix/local.
	if out.Host == "" {
		switch out.Transport {
		case TransportTCP, TransportTLS, TransportSSH, TransportMem:
			return nil, fmt.Errorf("uri: %q: transport %q requires a host", s, out.Transport)
		}
	}
	return out, nil
}

// IsRemote reports whether the URI addresses a daemon rather than an
// in-process driver: either a remote transport or a non-empty host.
func (u *URI) IsRemote() bool {
	switch u.Transport {
	case TransportTCP, TransportTLS, TransportSSH, TransportMem:
		return true
	}
	if u.Transport == TransportUnix {
		return true
	}
	return u.Host != ""
}

// EffectiveTransport resolves the transport actually used: explicit
// transport wins; otherwise a host implies TLS (libvirt's default for bare
// remote URIs) and no host implies a local unix connection.
func (u *URI) EffectiveTransport() Transport {
	if u.Transport != TransportNone && u.Transport != TransportLocal {
		return u.Transport
	}
	if u.Host != "" {
		return TransportTLS
	}
	return TransportUnix
}

// Param returns a query parameter and whether it was present.
func (u *URI) Param(key string) (string, bool) {
	v, ok := u.Params[key]
	return v, ok
}

// String formats the URI back to its canonical textual form. Query
// parameters are emitted in sorted key order so formatting is stable.
func (u *URI) String() string {
	var b strings.Builder
	b.WriteString(u.Driver)
	if u.Transport != TransportNone {
		b.WriteByte('+')
		b.WriteString(string(u.Transport))
	}
	b.WriteString("://")
	if u.Username != "" {
		b.WriteString(url.User(u.Username).String())
		b.WriteByte('@')
	}
	b.WriteString(u.Host)
	if u.Port != 0 {
		fmt.Fprintf(&b, ":%d", u.Port)
	}
	b.WriteString(u.Path)
	if len(u.Params) > 0 {
		keys := make([]string, 0, len(u.Params))
		for k := range u.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('?')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte('&')
			}
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(u.Params[k]))
		}
	}
	return b.String()
}

// Aliases maps short names to full connection URIs, the equivalent of
// libvirt.conf uri_aliases.
type Aliases map[string]string

// Resolve expands s through the alias table (one level) and parses it.
func (a Aliases) Resolve(s string) (*URI, error) {
	if full, ok := a[s]; ok {
		return Parse(full)
	}
	return Parse(s)
}

// AliasKeys is the client.conf key table (the dialect is package
// conf's): uri_aliases, whose entries land in entries as written.
func AliasKeys(entries *[]string) []conf.Key {
	return []conf.Key{conf.Strings("uri_aliases", entries)}
}

// ParseAliases reads a client configuration document in the
// libvirt.conf style:
//
//	uri_aliases = [
//	  "prod=qsim+tcp://virt1.example.com/system",
//	  "lab=test:///default",
//	]
//
// Alias names may not contain URI metacharacters so a name can never be
// confused with a real URI.
func ParseAliases(text string) (Aliases, error) {
	var entries []string
	at, err := conf.Parse(text, AliasKeys(&entries))
	if err != nil {
		return nil, fmt.Errorf("uri: %v", err)
	}
	aliases := Aliases{}
	for _, entry := range entries {
		name, target, found := strings.Cut(entry, "=")
		if !found || name == "" || target == "" {
			err = fmt.Errorf(`entries are "name=uri", not %q`, entry)
		} else if strings.ContainsAny(name, ":/?@") {
			err = fmt.Errorf("alias name %q contains URI metacharacters", name)
		} else {
			_, err = Parse(target)
		}
		if err != nil {
			return nil, fmt.Errorf("uri: %v", at.Errorf("uri_aliases", "%v", err))
		}
		aliases[name] = target
	}
	return aliases, nil
}
