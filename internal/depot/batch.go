package depot

import (
	"fmt"
	"io"

	"repro/internal/ibp"
	"repro/internal/wire"
)

// The depot side of the batched verb path. "BATCH <n>" announces n
// pipelined sub-requests, each in the ordinary single-verb request format;
// the depot acks the header ("OK <n>") and then answers each sub-request
// exactly as it would answer the verb alone, in order. The one addition
// over plain pipelining is the batch-local capability reference: a token
// "@<i>" in a sub-request resolves to the capability minted by the
// ALLOCATE at index i earlier in the same batch, which is what lets a
// client allocate and store in a single round trip.
//
// Per-op failures answer per-op errors and the batch continues — partial
// failure is the expected case and composes with the client's health
// scoreboard. Only framing violations (malformed header, a sub-verb whose
// payload layout the depot cannot know) tear the connection down, because
// after one of those the byte stream is unparseable.

func (d *Depot) handleBatch(conn *connCtx, args []string) error {
	if len(args) != 1 {
		conn.WriteErr(wire.CodeBadRequest, "BATCH wants <n>")
		return fmt.Errorf("malformed BATCH header")
	}
	n, err := wire.ParseInt("count", args[0])
	if err != nil || n < 1 || n > ibp.MaxBatchOps {
		conn.WriteErr(wire.CodeBadRequest, "bad batch count %q", args[0])
		return fmt.Errorf("bad batch count %q", args[0])
	}
	d.metrics.Batches.Add(1)
	if err := conn.WriteOK(wire.Itoa(n)); err != nil {
		return err
	}
	caps := make([]*ibp.CapSet, n)
	for i := 0; i < int(n); {
		toks, err := conn.ReadLine()
		if err != nil {
			return fmt.Errorf("batch sub-op %d: %w", i, err)
		}
		if len(toks) == 0 {
			continue
		}
		if err := d.dispatchBatchOp(conn, toks[0], toks[1:], caps, i); err != nil {
			return fmt.Errorf("batch sub-op %d (%s): %w", i, toks[0], err)
		}
		i++
	}
	return nil
}

// dispatchBatchOp runs one sub-operation, resolving batch-local capability
// references first. A returned error means the connection must close; per-op
// protocol errors are answered on the wire and return nil.
func (d *Depot) dispatchBatchOp(conn *connCtx, op string, args []string, caps []*ibp.CapSet, i int) error {
	switch op {
	case ibp.OpAllocate:
		set, rerr := d.allocate(conn, args)
		if rerr != nil {
			return conn.remoteErr(rerr)
		}
		caps[i] = &set
		return conn.WriteOK(set.Read.String(), set.Write.String(), set.Manage.String())
	case ibp.OpStore:
		if len(args) == 2 {
			tok, rerr := resolveBatchRef(op, args[0], caps)
			if rerr != nil {
				// The payload follows the request line regardless of the
				// reference's validity; consume it to preserve framing.
				if pn, perr := wire.ParseInt("len", args[1]); perr == nil && pn >= 0 {
					if err := conn.CopyBlob(io.Discard, pn); err != nil {
						return err
					}
				}
				return conn.remoteErr(rerr)
			}
			args = []string{tok, args[1]}
		}
		return d.handleStore(conn, args)
	case ibp.OpLoad, ibp.OpExtend, ibp.OpProbe, ibp.OpDelete:
		if len(args) >= 1 {
			tok, rerr := resolveBatchRef(op, args[0], caps)
			if rerr != nil {
				return conn.remoteErr(rerr)
			}
			args = append([]string{tok}, args[1:]...)
		}
		switch op {
		case ibp.OpLoad:
			return d.handleLoad(conn, args)
		case ibp.OpExtend:
			return d.handleExtend(conn, args)
		case ibp.OpProbe:
			return d.handleProbe(conn, args)
		default:
			return d.handleDelete(conn, args)
		}
	default:
		// A sub-verb outside the batchable set may carry a payload whose
		// framing this depot cannot know; answering and continuing would
		// desynchronize the stream, so refuse and drop the connection.
		conn.WriteErr(wire.CodeUnsupported, "verb %s not batchable", op)
		return fmt.Errorf("unbatchable verb %s", op)
	}
}

// resolveBatchRef maps an "@<i>" token to the capability of the matching
// earlier ALLOCATE, picking the capability type the verb requires. Ordinary
// tokens pass through untouched.
func resolveBatchRef(op, tok string, caps []*ibp.CapSet) (string, *wire.RemoteError) {
	idx, ok := ibp.ParseBatchRef(tok)
	if !ok {
		return tok, nil
	}
	if idx >= len(caps) || caps[idx] == nil {
		return "", &wire.RemoteError{
			Code:    wire.CodeNotFound,
			Message: fmt.Sprintf("batch reference @%d does not name a completed ALLOCATE", idx),
		}
	}
	set := caps[idx]
	switch op {
	case ibp.OpStore:
		return set.Write.Token(), nil
	case ibp.OpLoad:
		return set.Read.Token(), nil
	default:
		return set.Manage.Token(), nil
	}
}
