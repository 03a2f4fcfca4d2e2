package live

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
)

// The wire format, in one place. A connection carries concatenated JSON
// values in each direction — Request objects in, Response objects out,
// each conventionally followed by '\n' — and what the server accepts,
// decodes and writes is defined by encoding/json on those two types.
// This file is a faster implementation of that definition, not a second
// one: appendResponse writes the bytes json.Encoder writes, and
// decodeFrame parses by hand only the flat shape every client in the
// tree produces and hands any other frame to encoding/json itself
// (FuzzWireRequest and FuzzWireResponse hold both to that).

const (
	// readBufSize is a connection's initial read buffer; it doubles only
	// when a single frame does not fit.
	readBufSize = 4 << 10
	// maxFrame caps one request frame. A connection whose frame is still
	// incomplete after this many bytes is closed.
	maxFrame = 1 << 20
)

var (
	// errShortFrame: the bytes so far are a proper prefix of a frame.
	errShortFrame = errors.New("live: incomplete frame")
	// errFrameTooLarge closes a connection whose frame exceeds maxFrame.
	errFrameTooLarge = errors.New("live: request frame exceeds 1 MiB")
)

// appendResponse appends r exactly as json.Encoder.Encode(r) writes it,
// trailing newline included.
func appendResponse(b []byte, r *Response) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	if r.GenNs != 0 {
		b = append(b, `,"gen_ns":`...)
		b = strconv.AppendInt(b, r.GenNs, 10)
	}
	b = append(b, `,"recv_ns":`...)
	b = strconv.AppendInt(b, r.RecvNs, 10)
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, r.StartNs, 10)
	b = append(b, `,"end_ns":`...)
	b = strconv.AppendInt(b, r.EndNs, 10)
	b = append(b, `,"level":`...)
	b = strconv.AppendInt(b, int64(r.Level), 10)
	if r.Dropped {
		b = append(b, `,"dropped":true`...)
	}
	return append(b, "}\n"...)
}

// requestReader decodes the request frames of one connection. It owns
// the read buffer, so a frame is parsed where it was read and the cap on
// a frame's size is the cap on the buffer's.
type requestReader struct {
	src  io.Reader
	buf  []byte
	r, w int // buf[r:w] is read and not yet consumed
}

func newRequestReader(src io.Reader) *requestReader {
	return &requestReader{src: src, buf: make([]byte, readBufSize)}
}

// next decodes the next frame into dst, reusing dst.Features' backing
// array. Any error ends the connection: the source's own (io.EOF on a
// clean close), a frame encoding/json rejects, or errFrameTooLarge.
func (rr *requestReader) next(dst *Request) error {
	for {
		rr.r += skipSpace(rr.buf[rr.r:rr.w])
		if rr.r < rr.w {
			n, err := decodeFrame(rr.buf[rr.r:rr.w], dst)
			if err == nil {
				rr.r += n
				return nil
			}
			if err != errShortFrame {
				return err
			}
		}
		if err := rr.fill(); err != nil {
			return err
		}
	}
}

// fill reads more of the connection behind the unconsumed bytes, first
// moving them to the front of the buffer and growing it if they fill it.
func (rr *requestReader) fill() error {
	if rr.r > 0 {
		rr.w = copy(rr.buf, rr.buf[rr.r:rr.w])
		rr.r = 0
	}
	if rr.w == len(rr.buf) {
		if len(rr.buf) >= maxFrame {
			return errFrameTooLarge
		}
		rr.buf = append(rr.buf, make([]byte, len(rr.buf))...)
	}
	// A Reader may return (0, nil); bufio's limit on that applies here.
	for range 100 {
		n, err := rr.src.Read(rr.buf[rr.w:])
		if n > 0 {
			rr.w += n
			return nil // an error that came with data comes again alone
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// decodeFrame decodes the frame at the head of b, which starts at a
// non-space byte, and returns the bytes it spans. errShortFrame means b
// ends inside the frame; any other error is encoding/json's.
func decodeFrame(b []byte, dst *Request) (int, error) {
	n, ok := parseFlatRequest(b, dst)
	if ok {
		return n, nil
	}
	if n == len(b) {
		return 0, errShortFrame // a flat frame so far, and b ends
	}
	// Not the flat shape: this frame means whatever encoding/json says.
	dst.ID, dst.GenNs, dst.Features, dst.Class = 0, 0, dst.Features[:0], 0
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(dst); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errShortFrame // the decoder ran out of b, not of grammar
		}
		return 0, err
	}
	return int(dec.InputOffset()), nil
}

// parseFlatRequest parses the frame at the head of b if it has the shape
// the tree's clients write: one object whose keys are exactly "id",
// "gen_ns", "features" (an array of numbers) and "class", in any order,
// with JSON's optional whitespace; a repeated key overwrites, as in
// encoding/json. On success it stores all four fields of dst (absent
// ones zero, Features emptied in place) and returns the frame's length
// and true.
//
// Otherwise dst is unspecified and n is the offset of the first byte that
// does not fit the shape — len(b) when every byte fitted and the frame
// simply continues past b. The helpers below report failure the same way.
func parseFlatRequest(b []byte, dst *Request) (n int, ok bool) {
	var (
		id    uint64
		gen   int64
		class uint64
		feats = dst.Features[:0]
	)
	if len(b) == 0 || b[0] != '{' {
		return 0, false
	}
	i := 1 + skipSpace(b[1:])
	for more := i == len(b) || b[i] != '}'; more; {
		if i == len(b) || b[i] != '"' {
			return i, false
		}
		k := i + 1
		for i = k; i < len(b) && b[i] != '"'; i++ {
		}
		key := b[k:i]
		if i == len(b) && isKeyPrefix(key) {
			return i, false
		}
		if i == len(b) || !isKey(key) {
			return k, false // escaped, differently cased, unknown
		}
		i++
		i += skipSpace(b[i:])
		if i == len(b) || b[i] != ':' {
			return i, false
		}
		i++
		i += skipSpace(b[i:])
		if i == len(b) {
			return i, false
		}
		switch string(key) {
		case "id":
			v, m, ok := parseUint(b[i:], math.MaxUint64)
			if !ok {
				return i + m, false
			}
			id, i = v, i+m
		case "gen_ns":
			neg := b[i] == '-'
			limit := uint64(math.MaxInt64)
			if neg {
				i++
				limit++
			}
			v, m, ok := parseUint(b[i:], limit)
			if !ok {
				return i + m, false
			}
			// Negating as uint64 keeps MinInt64 exact.
			if neg {
				v = -v
			}
			gen, i = int64(v), i+m
		case "class":
			v, m, ok := parseUint(b[i:], math.MaxUint8)
			if !ok {
				return i + m, false
			}
			class, i = v, i+m
		case "features":
			if b[i] != '[' {
				return i, false
			}
			feats = feats[:0]
			i++
			i += skipSpace(b[i:])
			for more := i == len(b) || b[i] != ']'; more; {
				m, ok := scanNumber(b[i:])
				if !ok {
					return i + m, false
				}
				f, err := strconv.ParseFloat(string(b[i:i+m]), 64)
				if err != nil {
					return i, false // out of range: encoding/json's type error
				}
				feats = append(feats, f)
				i += m
				i += skipSpace(b[i:])
				if i == len(b) || b[i] != ',' && b[i] != ']' {
					return i, false
				}
				if more = b[i] == ','; more {
					i++
					i += skipSpace(b[i:])
				}
			}
			i++ // the ]
		}
		i += skipSpace(b[i:])
		if i == len(b) || b[i] != ',' && b[i] != '}' {
			return i, false
		}
		if more = b[i] == ','; more {
			i++
			i += skipSpace(b[i:])
		}
	}
	dst.ID, dst.GenNs, dst.Features, dst.Class = id, gen, feats, uint8(class)
	return i + 1, true
}

var flatKeys = [...]string{"id", "gen_ns", "features", "class"}

// isKey reports whether p is one of the flat shape's keys.
func isKey(p []byte) bool {
	for _, key := range flatKeys {
		if key == string(p) {
			return true
		}
	}
	return false
}

// isKeyPrefix reports whether p, cut off by the end of b, may yet be one.
func isKeyPrefix(p []byte) bool {
	for _, key := range flatKeys {
		if strings.HasPrefix(key, string(p)) {
			return true
		}
	}
	return false
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\r' || c == '\t' }

// skipSpace returns the length of b's leading JSON whitespace.
func skipSpace(b []byte) int {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// skipDigits returns the end of the run of digits in b that starts at n.
func skipDigits(b []byte, n int) int {
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	return n
}

// parseUint parses the JSON integer (0, or digits with no leading zero)
// at the head of b, up to limit. ok needs a following byte, which must
// end a number: at the end of b the digits may go on.
func parseUint(b []byte, limit uint64) (v uint64, n int, ok bool) {
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		d := uint64(b[n] - '0')
		if n == 1 && b[0] == '0' || v > (limit-d)/10 {
			return 0, n, false // leading zero, or past limit
		}
		v = v*10 + d
		n++
	}
	if n == len(b) {
		return 0, n, false
	}
	// A fraction or exponent is JSON but not an integer: encoding/json
	// refuses it for these fields, and says so itself.
	return v, n, n > 0 && endsNumber(b[n])
}

// scanNumber returns the length of the JSON number at the head of b:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? followed by a byte that
// ends it.
func scanNumber(b []byte) (n int, ok bool) {
	if n < len(b) && b[n] == '-' {
		n++
	}
	if n0 := n; n < len(b) && b[n] == '0' {
		n++
	} else if n = skipDigits(b, n); n == n0 {
		return n, false
	}
	if n < len(b) && b[n] == '.' {
		n0 := n + 1
		if n = skipDigits(b, n0); n == n0 {
			return n, false
		}
	}
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		n0 := n
		if n = skipDigits(b, n0); n == n0 {
			return n, false
		}
	}
	if n == len(b) {
		return n, false
	}
	return n, endsNumber(b[n])
}

// endsNumber reports whether c may follow a number inside an object or
// array: whitespace, a separator or a closer.
func endsNumber(c byte) bool { return isSpace(c) || c == ',' || c == '}' || c == ']' }
