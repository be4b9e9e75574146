package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"

	"soarpsme/internal/conflict"
	"soarpsme/internal/engine"
)

// digest is an order-independent multiset digest of a conflict set: the
// sum, lane by lane modulo 2^64, of the hash of each instantiation's
// rendered line — production name plus its wme time tags in CE order,
// "name(t1,t2,…)". A line's hash is the first 128 bits of its SHA-256, as
// two 64-bit lanes. Adding or removing one instantiation adds or subtracts
// its hash, so keeping the digest current costs what the conflict set's
// journal reports changed, and its rendering does not grow with the set.
// SHA-256 is fixed across processes and builds, so a digest computed here
// compares with one computed anywhere else, and lines that differ in one
// digit hash as unrelated values, so a sum of them does not cancel.
type digest struct {
	sum [2]uint64
	buf []byte // scratch: the line being hashed
}

// fold adds (sign 1) or subtracts (sign -1) one instantiation's hash.
func (d *digest) fold(in *conflict.Instantiation, sign uint64) {
	b := append(d.buf[:0], in.Prod.Name...)
	b = append(b, '(')
	for i, w := range in.WMEs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, w.TimeTag, 10)
	}
	d.buf = append(b, ')')
	h := sha256.Sum256(d.buf)
	d.sum[0] += sign * binary.BigEndian.Uint64(h[:])
	d.sum[1] += sign * binary.BigEndian.Uint64(h[8:])
}

// apply folds one drained journal window (conflict.Set.Drain) into the
// digest.
func (d *digest) apply(added, retracted []*conflict.Instantiation) {
	for _, in := range retracted {
		d.fold(in, ^uint64(0))
	}
	for _, in := range added {
		d.fold(in, 1)
	}
}

// render returns the fingerprint of a conflict set of cs instantiations
// with this digest beside a working memory of wm elements:
// "wm=W cs=N d=" then the two lanes as 32 hex digits.
func (d *digest) render(wm, cs int) string {
	var out [80]byte
	b := append(out[:0], "wm="...)
	b = strconv.AppendInt(b, int64(wm), 10)
	b = append(b, " cs="...)
	b = strconv.AppendInt(b, int64(cs), 10)
	b = append(b, " d="...)
	var lanes [16]byte
	binary.BigEndian.PutUint64(lanes[:], d.sum[0])
	binary.BigEndian.PutUint64(lanes[8:], d.sum[1])
	return string(hex.AppendEncode(b, lanes[:]))
}

// Fingerprint renders an engine's match state canonically: WM size,
// conflict-set size, and the digest of its instantiations. Two engines that
// matched the same workload produce byte-identical fingerprints regardless
// of worker count, policy, or recovery path — the serving layer's
// conformance contract. This is the from-scratch form the serial references
// use; a Session keeps the same digest from the conflict set's journal
// (Session.fingerprint) and renders it the same way.
func Fingerprint(e *engine.Engine) string {
	var d digest
	insts := e.CS.All()
	d.apply(insts, nil)
	return d.render(e.WM.Len(), len(insts))
}
