package common

import (
	"context"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/statestore"
)

// The state root is process-wide daemon configuration: when govirtd (or a
// test) points it at a directory, every driver base created afterwards
// journals its defined domains, networks and pools there and replays them
// on construction. Driver connections are per-client, so this is what
// makes definitions survive not just connection close but a kill -9 of
// the whole daemon: the next daemon process replays the journal and
// serves the same objects.
var (
	stateRootMu sync.RWMutex
	stateRoot   string
)

// SetStateRoot points persistence at a directory ("" disables it, the
// default). Affects bases created after the call.
func SetStateRoot(dir string) {
	stateRootMu.Lock()
	stateRoot = dir
	stateRootMu.Unlock()
}

// StateRoot returns the configured persistence directory.
func StateRoot() string {
	stateRootMu.RLock()
	defer stateRootMu.RUnlock()
	return stateRoot
}

// openStore attaches the base to its per-driver store and replays
// persisted state. Called from New before the base is shared, so the
// replaying flag needs no locking. The store directory is
// <root>/<driver-type>[/<scope>], so drivers with URI-selected
// environments keep one journal per environment.
func (b *Base) openStore() {
	root := StateRoot()
	if root == "" {
		return
	}
	dir := filepath.Join(root, b.hooks.Type())
	if b.scope != "" {
		dir = filepath.Join(dir, b.scope)
	}
	s, err := statestore.Open(dir)
	if err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "state store unavailable, persistence off",
			slog.Any("err", err))
		return
	}
	b.store = s
	b.replay()
}

// sanitizeScope flattens a persistence scope into a single safe path
// component: separators and other hostile characters become '_', and
// the dot-only names that would escape the store directory are
// neutralised.
func sanitizeScope(scope string) string {
	if scope == "" {
		return ""
	}
	out := []byte(scope)
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			out[i] = '_'
		}
	}
	s := string(out)
	if strings.Trim(s, ".") == "" {
		return "_"
	}
	return s
}

// replay re-applies the journal through the normal define/start paths:
// networks and pools first (domains may reference them), active markers
// after their definitions. Individual failures are logged and skipped —
// a half-recovered daemon beats a dead one.
func (b *Base) replay() {
	b.replaying = true
	defer func() { b.replaying = false }()

	load := func(kind string) []statestore.Object {
		objs, err := b.store.LoadAll(kind)
		if err != nil {
			b.log.LogAttrs(context.TODO(), slog.LevelWarn, "replay",
				slog.String("kind", kind), slog.Any("err", err))
		}
		return objs
	}
	if b.nets != nil {
		for _, o := range load(statestore.KindNetworks) {
			if err := b.DefineNetwork(string(o.Data)); err != nil {
				b.log.LogAttrs(context.TODO(), slog.LevelWarn, "replay network",
					slog.String("network", o.Name), slog.Any("err", err))
			}
		}
		for _, o := range load(statestore.KindNetsActive) {
			if err := b.StartNetwork(o.Name); err != nil {
				b.log.LogAttrs(context.TODO(), slog.LevelWarn, "replay network start",
					slog.String("network", o.Name), slog.Any("err", err))
			}
		}
	}
	if b.pools != nil {
		for _, o := range load(statestore.KindPools) {
			if err := b.DefineStoragePool(string(o.Data)); err != nil {
				b.log.LogAttrs(context.TODO(), slog.LevelWarn, "replay pool",
					slog.String("pool", o.Name), slog.Any("err", err))
			}
		}
		for _, o := range load(statestore.KindPoolsActive) {
			if err := b.StartStoragePool(o.Name); err != nil {
				b.log.LogAttrs(context.TODO(), slog.LevelWarn, "replay pool start",
					slog.String("pool", o.Name), slog.Any("err", err))
			}
		}
	}
	for _, o := range load(statestore.KindDomains) {
		if _, err := b.DefineDomain(string(o.Data)); err != nil {
			b.log.LogAttrs(context.TODO(), slog.LevelWarn, "replay domain",
				slog.String("domain", o.Name), slog.Any("err", err))
		}
	}
	for _, o := range load(statestore.KindDomsActive) {
		if err := b.CreateDomain(o.Name); err != nil {
			b.log.LogAttrs(context.TODO(), slog.LevelWarn, "replay domain start",
				slog.String("domain", o.Name), slog.Any("err", err))
		}
	}
}

// persistSave journals one object; definition paths fail the operation
// when the journal write fails, since claiming "defined" for an object a
// restart would forget breaks the crash-safety contract.
func (b *Base) persistSave(kind, name string, data []byte) error {
	if b.store == nil || b.replaying {
		return nil
	}
	if err := b.store.Save(kind, name, data); err != nil {
		return core.Errorf(core.ErrInternal, "persist %s %q: %v", kind, name, err)
	}
	return nil
}

// persistDelete removes a journal entry. Deletion failures only warn:
// the worst outcome is a stale object reappearing after restart, which
// is recoverable, unlike failing an undefine that already happened.
func (b *Base) persistDelete(kind, name string) {
	if b.store == nil || b.replaying {
		return
	}
	if err := b.store.Delete(kind, name); err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "persist delete",
			slog.String("kind", kind), slog.String("name", name), slog.Any("err", err))
	}
}
