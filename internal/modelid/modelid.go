// Package modelid numbers model names for the process: each name gets a
// small ID on first sight and keeps it for the life of the process, so a
// trace event can carry its model as a number instead of a string and an
// array of events holds no pointer for the collector to scan.
//
// The table is process-wide because the places that render an event's
// model — a trace.Ring snapshot, the /tracez endpoint, the CSV, JSONL and
// Perfetto writers — have no per-run table in reach. It is append-only:
// hot deploy adds names, and nothing ever removes one, so an ID stays valid
// for every event that carries it. It is not a closed vocabulary like
// trace.Word for the same reason.
//
// Intern takes a mutex only for a name it has not seen; every other read —
// Lookup, String, Intern of a known name — loads an immutable snapshot
// behind an atomic pointer and takes no lock. Resolve a name once per model
// (a catalog entry, a memo) and carry the ID, rather than interning per
// event.
package modelid

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// ID is a model name's number. The zero ID is the empty name, so the zero
// value of a struct that carries one names no model.
type ID uint32

// table is one immutable snapshot of the name table. names[id] is id's
// name; a later snapshot may share the names array, but only appends past
// this snapshot's length, which no reader of this snapshot indexes.
type table struct {
	names []string
	ids   map[string]ID
}

var (
	// mu serializes Intern's writers; readers never take it.
	mu  sync.Mutex
	cur atomic.Pointer[table]
)

func init() {
	cur.Store(&table{names: []string{""}, ids: map[string]ID{"": 0}})
}

// Lookup returns name's ID and whether the name has been interned. It
// never adds a name, so a caller holding an untrusted name (a query
// parameter, a client's model field) can resolve it without growing the
// table: a name no one interned matches no event.
func Lookup(name string) (ID, bool) {
	id, ok := cur.Load().ids[name]
	return id, ok
}

// Intern returns name's ID, adding the name to the table on first sight.
func Intern(name string) ID {
	if id, ok := Lookup(name); ok {
		return id
	}
	mu.Lock()
	defer mu.Unlock()
	old := cur.Load()
	if id, ok := old.ids[name]; ok {
		return id
	}
	id := ID(len(old.names))
	ids := make(map[string]ID, len(old.ids)+1)
	for k, v := range old.ids {
		ids[k] = v
	}
	ids[name] = id
	cur.Store(&table{names: append(old.names, name), ids: ids})
	return id
}

// String returns the ID's name; an ID no Intern returned renders as
// "modelid.ID(n)".
func (id ID) String() string {
	if names := cur.Load().names; int(id) < len(names) {
		return names[id]
	}
	return "modelid.ID(" + strconv.Itoa(int(id)) + ")"
}

// memoLen is how many names a Memo holds.
const memoLen = 8

// Memo resolves names to IDs for one owner — an engine, a tracer — that
// sees a handful of models over and over: comparing a few names is
// cheaper than hashing one. Past memoLen distinct names it falls through
// to Intern. The zero value is ready to use; a Memo is not safe for
// concurrent use.
type Memo struct {
	n     int
	names [memoLen]string
	ids   [memoLen]ID
}

// ID returns name's ID, interning it on first sight.
func (m *Memo) ID(name string) ID {
	for i, known := range m.names[:m.n] {
		if known == name {
			return m.ids[i]
		}
	}
	id := Intern(name)
	if m.n < memoLen {
		m.names[m.n], m.ids[m.n] = name, id
		m.n++
	}
	return id
}
