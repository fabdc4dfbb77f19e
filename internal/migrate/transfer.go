package migrate

import (
	"sync"

	"repro/internal/core"
	"repro/internal/faultpoint"
)

// The transfer layer moves page chunks to the destination connection's
// migration sink (core.DriverConn's MigratePrepare/MigratePages/
// MigrateFinish). Every local driver base accounts them directly; the
// remote driver forwards them over dedicated wire procedures, so each
// chunk is a real RPC through the pooled frame path, parallel streams
// genuinely pipeline on the connection and chaos tests can cut them
// mid-flight.
//
// Timing stays modelled either way: chunk payloads are capped
// representatives (Pages carries the authoritative accounting), and
// round durations derive from the bandwidth model, not wall clock.

// FaultSiteStream is the faultpoint site evaluated once per chunk send.
// ModeDrop loses the chunk (it is retransmitted once, charging the
// stream the extra transfer time); ModeError kills the stream — a
// pre-copy abort, or the typed ErrPostCopy when the post-copy pull
// dies; ModeDelay injects latency as everywhere else.
const FaultSiteStream = "migrate.stream"

// chunkPayloadCap bounds the representative bytes carried per chunk so
// a multi-GiB round costs a handful of pooled frames, not a memory copy.
const chunkPayloadCap = 16 * 1024

// maxChunksPerStream bounds wire chunks per stream per round.
const maxChunksPerStream = 4

// chunkPages is the page granularity above which a stream's round share
// is split into multiple wire chunks.
const chunkPages = 16384 // 64 MiB

var chunkPayload = make([]byte, chunkPayloadCap)

// transport is the destination-facing side of the engine.
type transport interface {
	send(ch *core.MigrateChunk) error
	finish(commit bool) error
}

// sinkTransport pushes chunks into the destination's migration sink.
type sinkTransport struct {
	sink   core.DriverConn
	cookie uint64
}

// newTransport registers the transfer on the destination and returns
// the transport that carries its chunks.
func newTransport(dst *core.Connect, domain string, totalPages uint64, streams int) (transport, error) {
	sink := dst.Driver()
	cookie, err := sink.MigratePrepare(domain, totalPages, streams)
	if err != nil {
		return nil, err
	}
	return &sinkTransport{sink: sink, cookie: cookie}, nil
}

func (t *sinkTransport) send(ch *core.MigrateChunk) error {
	ch.Cookie = t.cookie
	return t.sink.MigratePages(ch)
}

func (t *sinkTransport) finish(commit bool) error {
	return t.sink.MigrateFinish(t.cookie, commit)
}

// modelTransport is Estimate's transport: timing and accounting run,
// nothing crosses a connection.
type modelTransport struct{}

func (modelTransport) send(*core.MigrateChunk) error { return nil }
func (modelTransport) finish(bool) error             { return nil }

// sendChunk pushes one chunk through the transport with the
// migrate.stream faultpoint applied. A dropped (or corrupted) chunk is
// retransmitted once and the retransmitted pages are returned so the
// caller charges the stream the extra transfer time; an injected error
// is a stream death.
func sendChunk(tr transport, ch *core.MigrateChunk) (retransPages uint64, err error) {
	if spec, fired := faultpoint.Default.Eval(FaultSiteStream); fired {
		switch spec.Mode {
		case faultpoint.ModeDrop, faultpoint.ModeCorrupt:
			migRetrans.Inc()
			retransPages = ch.Pages
		case faultpoint.ModeError:
			err := spec.Err
			if err == nil {
				err = core.Errorf(core.ErrMigrate,
					"migration stream %d died (injected)", ch.Stream)
			}
			return 0, err
		}
		// ModeDelay already slept inside Eval.
	}
	ch.Data = chunkPayload[:payloadLen(ch.Pages)]
	if ch.Priority {
		migPulls.Inc()
	} else {
		migChunksTx.Inc()
	}
	return retransPages, tr.send(ch)
}

// payloadLen sizes the representative payload for a chunk accounting
// for the given page count.
func payloadLen(pages uint64) int {
	n := pages * 64 // 64 representative bytes per 4 KiB page
	if n > chunkPayloadCap {
		n = chunkPayloadCap
	}
	return int(n)
}

// sendRound pushes one copy round of roundPages across streams parallel
// streams and returns the per-stream page counts (share + retransmits)
// that determine the round's modelled duration. Streams run as real
// goroutines so their chunk RPCs pipeline on the destination
// connection; the first stream death wins and aborts the round.
func sendRound(tr transport, round, streams int, roundPages uint64) (perStream []uint64, err error) {
	perStream = make([]uint64, streams)
	share := roundPages / uint64(streams)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < streams; i++ {
		pages := share
		if i == streams-1 {
			pages = roundPages - share*uint64(streams-1)
		}
		if pages == 0 {
			continue
		}
		perStream[i] = pages
		wg.Add(1)
		go func(stream int, pages uint64) {
			defer wg.Done()
			extra, serr := streamSend(tr, round, stream, pages)
			mu.Lock()
			perStream[stream] += extra
			if serr != nil && firstErr == nil {
				firstErr = serr
			}
			mu.Unlock()
		}(i, pages)
	}
	wg.Wait()
	return perStream, firstErr
}

// streamSend splits one stream's share into wire chunks and sends them
// sequentially, accumulating retransmitted pages.
func streamSend(tr transport, round, stream int, pages uint64) (retrans uint64, err error) {
	nchunks := int((pages + chunkPages - 1) / chunkPages)
	if nchunks < 1 {
		nchunks = 1
	}
	if nchunks > maxChunksPerStream {
		nchunks = maxChunksPerStream
	}
	per := pages / uint64(nchunks)
	for c := 0; c < nchunks; c++ {
		p := per
		if c == nchunks-1 {
			p = pages - per*uint64(nchunks-1)
		}
		extra, err := sendChunk(tr, &core.MigrateChunk{
			Stream: stream, Round: round, Pages: p,
		})
		retrans += extra
		if err != nil {
			return retrans, err
		}
	}
	return retrans, nil
}
