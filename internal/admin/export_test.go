package admin

// NumHandlers and HasHandler let TestProcTableComplete hold the handler
// slice against Procs.
func NumHandlers() int { return len(handlers) }

func HasHandler(proc uint32) bool { return int(proc) < len(handlers) && handlers[proc] != nil }
