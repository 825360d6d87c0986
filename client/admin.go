package client

// Cluster admin operations (protocol FeatCluster): shard introspection, map
// installation, and the handover opcode family, as endpoint methods that a
// Client addresses to its home endpoint. dytis-ctl drives the first two;
// the import/mirror trio is what one shard server speaks to another during
// a live handover (cluster.Peer), with a Client from Dial as the transport.

import (
	"context"
	"errors"

	"dytis/internal/cluster"
	"dytis/internal/proto"
)

// ShardInfo is a shard server's self-description.
type ShardInfo struct {
	// Lo, Hi is the owned key range (inclusive); Lo > Hi means the server
	// owns nothing (a fresh node awaiting a handover).
	Lo, Hi uint64
	// Epoch is the server's current shard-map epoch, 0 before any map.
	Epoch uint64
	// State is the server's handover state (cluster.Handover* constants).
	State uint8
}

// ShardInfo asks the server for its owned range, epoch, and handover state.
func (e *endpoint) ShardInfo(ctx context.Context) (ShardInfo, error) {
	var resp proto.Response
	if err := e.do(ctx, &proto.Request{Op: proto.OpShardInfo}, &resp); err != nil {
		return ShardInfo{}, err
	}
	return ShardInfo{Lo: resp.Lo, Hi: resp.Hi, Epoch: resp.Epoch, State: resp.State}, nil
}

// ShardMap fetches the server's current encoded shard map
// (cluster.DecodeMap parses it).
func (e *endpoint) ShardMap(ctx context.Context) ([]byte, error) {
	var resp proto.Response
	if err := e.do(ctx, &proto.Request{Op: proto.OpMapGet}, &resp); err != nil {
		return nil, err
	}
	return resp.MapBlob, nil
}

// SetShardMap installs an encoded shard map on the server and declares its
// owned range to be [selfLo, selfHi] (selfLo > selfHi = owns nothing). The
// server refuses maps whose epoch does not move forward, and refuses to
// de-own any range no completed handover covers — this call is the cutover
// step of a handover, in owner order: de-own on the old owner first, then
// grant on the new one.
func (e *endpoint) SetShardMap(ctx context.Context, selfLo, selfHi uint64, blob []byte) error {
	return e.do(ctx, &proto.Request{Op: proto.OpMapSet, Lo: selfLo, Hi: selfHi, MapBlob: blob}, new(proto.Response))
}

// HandoverStart tells the server to begin migrating its owned subrange
// [lo, hi] to the shard server at addr: bulk copy plus double-written
// writes until a SetShardMap cuts the range over. Poll with HandoverStatus.
func (e *endpoint) HandoverStart(ctx context.Context, lo, hi uint64, addr string) error {
	return e.do(ctx, &proto.Request{Op: proto.OpHandoverStart, Lo: lo, Hi: hi, Addr: addr}, new(proto.Response))
}

// HandoverStatus polls the server's current (or last) handover. Cause
// carries the text of the node's suspension cause; it is nil unless the
// handover is suspended.
func (e *endpoint) HandoverStatus(ctx context.Context) (cluster.HandoverInfo, error) {
	var resp proto.Response
	if err := e.do(ctx, &proto.Request{Op: proto.OpHandoverStatus}, &resp); err != nil {
		return cluster.HandoverInfo{}, err
	}
	info := cluster.HandoverInfo{
		State: resp.State, Copied: resp.Copied, Mirrored: resp.Mirrored,
		Retries: resp.Retries, Resumes: resp.Resumes, Watermark: resp.Watermark,
		Lo: resp.Lo, Hi: resp.Hi, Target: resp.Addr,
	}
	if resp.Cause != "" {
		info.Cause = errors.New(resp.Cause)
	}
	return info, nil
}

// HandoverResume tells the server to resume its suspended handover: redial
// the target, replay writes journaled while suspended, and continue the
// bulk copy from the watermark (or from scratch if the target restarted
// empty). Fails if the server has no handover or it is not suspended.
func (e *endpoint) HandoverResume(ctx context.Context) error {
	return e.do(ctx, &proto.Request{Op: proto.OpHandoverResume}, new(proto.Response))
}

// HandoverAbort abandons the server's current handover in any state,
// scrubbing the partially-imported range from the target (best-effort when
// the target is unreachable). The server can then start a fresh handover.
func (e *endpoint) HandoverAbort(ctx context.Context) error {
	return e.do(ctx, &proto.Request{Op: proto.OpHandoverAbort}, new(proto.Response))
}

// ImportBatch streams one bulk-copy page into the open import session,
// returning how many pairs the server actually applied (pairs already
// superseded by mirrored writes are skipped). Server-to-server use.
func (e *endpoint) ImportBatch(ctx context.Context, keys, vals []uint64) (applied uint64, err error) {
	var resp proto.Response
	if err := e.do(ctx, &proto.Request{Op: proto.OpImportBatch, Keys: keys, Vals: vals}, &resp); err != nil {
		return 0, err
	}
	return resp.Applied, nil
}

// ImportEnd closes the import session: commit keeps the imported range
// (the cutover is granting it), abort scrubs it. Server-to-server use.
func (e *endpoint) ImportEnd(ctx context.Context, commit bool) error {
	return e.do(ctx, &proto.Request{Op: proto.OpImportEnd, Commit: commit}, new(proto.Response))
}

// ImportResume opens, or re-attaches to, an import session for [lo, hi] on
// the server: a handover's start opens one through it, and its resume and
// cutover probe re-attach. If a session survived, fresh is false and
// applied reports how many pairs it already holds; otherwise (none yet, or
// the server restarted) a new empty session is opened and fresh is true,
// telling a resuming source to recopy from scratch. Server-to-server use.
func (e *endpoint) ImportResume(ctx context.Context, lo, hi uint64) (fresh bool, applied uint64, err error) {
	var resp proto.Response
	if err := e.do(ctx, &proto.Request{Op: proto.OpImportResume, Lo: lo, Hi: hi}, &resp); err != nil {
		return false, 0, err
	}
	return resp.Fresh, resp.Applied, nil
}

// Mirror applies one double-written operation on the handover target: a
// write (or delete, when del) of key that the source has already applied
// locally and must see acknowledged before acking its own client.
// Server-to-server use.
func (e *endpoint) Mirror(ctx context.Context, del bool, key, val uint64) error {
	return e.do(ctx, &proto.Request{Op: proto.OpMirror, Del: del, Key: key, Val: val}, new(proto.Response))
}

// RequireCluster verifies the connection negotiated the cluster opcode
// family, failing with a descriptive error otherwise. Callers about to
// drive admin opcodes use it to fail fast with a better message than the
// server's quarantine.
func (e *endpoint) RequireCluster(ctx context.Context) error {
	_, feats, err := e.Protocol(ctx)
	if err != nil {
		return err
	}
	if feats&proto.FeatCluster == 0 {
		return errors.New("client: server did not grant the cluster feature (not started with -shard?)")
	}
	return nil
}
