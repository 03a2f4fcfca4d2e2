package live

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"retail/internal/workload"
)

// chunkReader hands a stream over in reads of at most size bytes (0 = as
// much as the caller takes) and counts what it has delivered.
type chunkReader struct {
	rest      []byte
	size      int
	delivered int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		return 0, io.EOF
	}
	if c.size > 0 && len(p) > c.size {
		p = p[:c.size]
	}
	n := copy(p, c.rest)
	c.rest, c.delivered = c.rest[n:], c.delivered+n
	return n, nil
}

// checkWireStream is the wire contract: over one byte stream, delivered
// in reads of any size, requestReader and a plain json.Decoder yield the
// same frames — same decoded values (floats bit for bit), same byte
// spans — and stop at the same frame, for the same kind of reason: the
// stream ended (cleanly or inside a frame), or the frame is not a Request.
func checkWireStream(t *testing.T, stream []byte, chunk int) {
	t.Helper()
	src := &chunkReader{rest: stream, size: chunk}
	rr := newRequestReader(src)
	ref := json.NewDecoder(bytes.NewReader(stream))
	for frame, at := 0, 0; ; frame++ {
		// Fresh values on both sides: what a null leaves in a recycled
		// Features backing is encoding/json's business on both paths.
		var got, want Request
		gotErr, wantErr := rr.next(&got), ref.Decode(&want)
		if gotErr != nil || wantErr != nil {
			ended := wantErr == io.EOF || wantErr == io.ErrUnexpectedEOF
			// One latitude: a bare number (never a Request) ends only at
			// the byte after it, so a decoder shown part of the stream may
			// reject it before one shown all of it knows it is complete.
			at += skipSpace(stream[at:])
			bare := at < len(stream) && (stream[at] == '-' || stream[at] >= '0' && stream[at] <= '9')
			if gotErr == nil || wantErr == nil || (gotErr == io.EOF) != ended && !bare {
				t.Fatalf("frame %d of %q (reads of %d): reader error %v, encoding/json %v",
					frame, stream, chunk, gotErr, wantErr)
			}
			return
		}
		at = int(ref.InputOffset())
		if got.ID != want.ID || got.GenNs != want.GenNs || got.Class != want.Class ||
			!sameFloats(got.Features, want.Features) {
			t.Fatalf("frame %d of %q (reads of %d): decoded %+v, encoding/json %+v",
				frame, stream, chunk, got, want)
		}
		if end := src.delivered - (rr.w - rr.r); int64(end) != ref.InputOffset() {
			t.Fatalf("frame %d of %q (reads of %d): ends at byte %d, encoding/json at %d",
				frame, stream, chunk, end, ref.InputOffset())
		}
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// benchRequest is bench/live_gen.go's request writer, the hand-rolled
// client the server sees most of: strconv 'g' floats, no class.
func benchRequest(b []byte, id uint64, genNs int64, feats []float64) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, `,"gen_ns":`...)
	b = strconv.AppendInt(b, genNs, 10)
	b = append(b, `,"features":[`...)
	for i, f := range feats {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	return append(b, "]}\n"...)
}

// wireSeeds is the in-source corpus: what the tree's two kinds of client
// write, then every way a frame can leave the flat shape.
func wireSeeds() [][]byte {
	var enc bytes.Buffer
	e := json.NewEncoder(&enc)
	e.Encode(Request{ID: 7, GenNs: 1700000000123456789, Features: []float64{3, 0.25, 1e-7, 123456.789}})
	e.Encode(Request{ID: math.MaxUint64, GenNs: math.MinInt64, Features: []float64{}, Class: 255})
	e.Encode(Request{ID: 1})
	seeds := [][]byte{
		enc.Bytes(),
		benchRequest(nil, 1<<32|5, 1700000000123456789, []float64{12, 1e6, 2.5e-7, 1e21, 0.1}),
		benchRequest(benchRequest(nil, 1, 2, []float64{1}), 2, 3, nil), // two frames, one read
	}
	for _, s := range []string{
		// The flat shape at its edges.
		`{}`, ` { } `, `{"id":0}`, `{"gen_ns":-0}`, `{"gen_ns":-9223372036854775808}`,
		"{ \"id\" : 1 ,\t\"features\" : [ 1 , 2 ] , \"class\" : 3 }\r\n\r\n{\"id\":2}\n\n\n",
		`{"class":2,"features":[1e0,-0.0,1E+2,0.5e-3],"gen_ns":5,"id":9}`,
		`{"id":1,"id":2,"features":[1,2,3],"features":[4],"class":1,"class":0}`,
		`{"id":1}{"id":2}`, `{"id":18446744073709551615,"class":255}`,
		`{"features":[4.9e-324,1.7976931348623157e308,1e-400,123456789012345678901234567890]}`,
		// Not JSON numbers.
		`{"id":+1}`, `{"id":01}`, `{"features":[.5]}`, `{"features":[0x1p3]}`, `{"features":[Inf]}`,
		`{"features":[NaN]}`, `{"features":[1.]}`, `{"features":[1e]}`, `{"features":[-]}`, `{"gen_ns":--1}`,
		`{"features":[1_0]}`, `{"id":1x}`,
		// JSON, but not a Request: type errors once the value is whole.
		`{"id":-1}`, `{"id":1.0}`, `{"id":1e3}`, `{"id":18446744073709551616}`, `{"class":256}`,
		`{"gen_ns":9223372036854775808}`, `{"gen_ns":-9223372036854775809}`, `{"features":[1e999]}`,
		`{"id":"1"}`, `{"features":"x"}`, `{"features":[[1]]}`, `{"features":{"a":1}}`, `{"id":true}`,
		`5`, `12 `, `"id"`, `[1,2]`, `true`, `-`,
		// Accepted by encoding/json outside the flat shape.
		`null`, `null null`, `nullnull`, `{"id":null,"features":null}`, `{"features":[null,1]}`,
		`{"ID":3,"Gen_NS":4,"FEATURES":[1],"Class":2}`, `{"id":5}`, `{"id\"":5,"id":6}`,
		`{"id":1,"extra":{"deep":[1,{"x":"}"}]},"features":[2]}`, `{"":1,"id":2}`, `{"features":[1],"features":[]}`,
		`{"id":1,"id":"x"}`, `{"features":[1,2],"features":null}`,
		// Syntax errors, at every place the parser looks.
		`{`, `{"`, `{"id"`, `{"id":`, `{"id":1`, `{"id":1,`, `{"id":1,}`, `{,}`, `{"id" 1}`, `{"id":1 "class":2}`,
		`{"features":[1,]}`, `{"features":[1 2]}`, `{"features":[1}`, `{"features":[`, `{"id":1}}`, `}`, `{"id":1}x`,
		"{\"id\":1\x00}", "\xef\xbb\xbf{\"id\":1}", `{'id':1}`, "{\"i\x01d\":1}", "{\"features\":[1\v]}",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzWireRequest holds requestReader to checkWireStream for arbitrary
// bytes, for the whole stream and for every place it could be cut short
// — so a strict prefix of an accepted frame is "read more" and never a
// frame or an error of its own.
func FuzzWireRequest(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add(s, uint16(0))
		f.Add(s, uint16(1))
		f.Add(s, uint16(len(s)/2)) // a frame split across two reads
	}
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint16) {
		checkWireStream(t, stream, int(chunk))
		// Every cut of a short stream; of a long one, 128 spread evenly.
		step := 1 + len(stream)/128
		for cut := 0; cut < len(stream); cut += step {
			checkWireStream(t, stream[:cut], int(chunk))
		}
	})
}

// FuzzWireResponse: appendResponse writes json.Encoder's bytes.
func FuzzWireResponse(f *testing.F) {
	f.Add(uint64(0), int64(0), int64(0), int64(0), int64(0), 0, false)
	f.Add(uint64(1)<<32|77, int64(1700000000123456789), int64(1700000000123460000),
		int64(1700000000123470000), int64(1700000000123480000), 11, false)
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64), int64(math.MaxInt64), int64(-1), int64(1), -3, true)
	f.Add(uint64(9), int64(0), int64(5), int64(0), int64(0), 0, true) // a shed request: no gen echo, never started
	f.Fuzz(func(t *testing.T, id uint64, gen, recv, start, end int64, level int, dropped bool) {
		r := Response{ID: id, GenNs: gen, RecvNs: recv, StartNs: start, EndNs: end, Level: level, Dropped: dropped}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := appendResponse([]byte("x"), &r); string(got) != "x"+want.String() {
			t.Fatalf("appendResponse wrote %q, json.Encoder %q", got[1:], want.Bytes())
		}
	})
}

// xapianFrames is the benchmarks' corpus: n requests with xapian's
// features, as bench/ writes them, and the same requests decoded.
func xapianFrames(n int) (frames [][]byte, reqs []Request) {
	app, rng := workload.NewXapian(), rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		r := Request{ID: uint64(i), GenNs: 1700000000000000000 + int64(i)*33333, Features: app.Generate(rng).Features}
		frames, reqs = append(frames, benchRequest(nil, r.ID, r.GenNs, r.Features)), append(reqs, r)
	}
	return frames, reqs
}

// TestWireZeroAlloc: with a recycled Request and a recycled buffer, as
// serveConn has them, neither direction of the codec allocates.
func TestWireZeroAlloc(t *testing.T) {
	frames, reqs := xapianFrames(16)
	dst := Request{Features: make([]float64, 0, 16)}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeFrame(frames[i%len(frames)], &dst); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("decodeFrame allocates %.1f/op, want 0", allocs)
	}
	if dst.ID != reqs[(i-1)%len(reqs)].ID || !sameFloats(dst.Features, reqs[(i-1)%len(reqs)].Features) {
		t.Errorf("decoded %+v, want %+v", dst, reqs[(i-1)%len(reqs)])
	}
	resp := Response{ID: 1<<32 | 9, GenNs: 1700000000000000000, RecvNs: 1700000000000040000,
		StartNs: 1700000000000050000, EndNs: 1700000000000050100, Level: 7}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(200, func() {
		buf = appendResponse(buf[:0], &resp)
	}); allocs != 0 {
		t.Errorf("appendResponse allocates %.1f/op, want 0", allocs)
	}
}

var benchSink int

// BenchmarkWireRequestDecode: one request frame to a Request, the codec
// against the encoding/json call it replaced (a persistent json.Decoder
// over the concatenated corpus, as serveConn had over the connection).
func BenchmarkWireRequestDecode(b *testing.B) {
	frames, _ := xapianFrames(512)
	b.Run("wire", func(b *testing.B) {
		dst := Request{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := decodeFrame(frames[i%len(frames)], &dst)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += n
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		stream := bytes.Join(frames, nil)
		src := bytes.NewReader(stream)
		dec, dst := json.NewDecoder(src), Request{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(frames) == 0 && i > 0 {
				src.Reset(stream)
				dec = json.NewDecoder(src)
			}
			dst.ID, dst.GenNs, dst.Features, dst.Class = 0, 0, dst.Features[:0], 0
			if err := dec.Decode(&dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireResponseEncode: one Response to its line.
func BenchmarkWireResponseEncode(b *testing.B) {
	_, reqs := xapianFrames(512)
	resps := make([]Response, len(reqs))
	for i, r := range reqs {
		resps[i] = Response{ID: r.ID, GenNs: r.GenNs, RecvNs: r.GenNs + 40000, StartNs: r.GenNs + 50000, EndNs: r.GenNs + 50100, Level: i % 12}
	}
	b.Run("wire", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendResponse(buf[:0], &resps[i%len(resps)])
		}
		benchSink += len(buf)
	})
	b.Run("encoding-json", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(resps[i%len(resps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
