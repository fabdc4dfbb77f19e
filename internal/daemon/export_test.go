package daemon

// NumHandlers and HasHandler let TestProcTablesComplete hold the remote
// program's handler slice against wire.Procs.
func NumHandlers() int { return len(handlers) }

func HasHandler(proc uint32) bool { return int(proc) < len(handlers) && handlers[proc] != nil }
