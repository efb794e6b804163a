package mpi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/vtime"
)

// fp16GoldenCases pins the exact output of every fp16 allreduce schedule:
// a SHA-256 of each rank's result, recorded before the binary16 kernels
// were rewritten (the cases from "Worlds 2 and 4" on: before the ring
// allgather forwarded received chunks). Any change to how a value is rounded, decoded or
// combined — in one element of one schedule — changes a hash. Regenerate
// only for an intended change of the numbers, never to make a kernel
// change pass.
//
// chunks is the pipelined split factor K (0: DefaultPipelineChunks) and
// elems the tensor length (0: 9001, prime, so no world·K divides it).
// AlgoAuto's tree/ring split counts wire bytes, two per fp16 element:
// its cases at 9001 and 20011 elements take the tree for both element
// types, and at 40009 the ring branch (recorded from the explicit ring
// at that length, which it must match).
var fp16GoldenCases = []struct {
	algo          AllreduceAlgo
	nodes, ppn    int
	chunks, elems int
	op            Op
	f32, f64      string // sha256 of every rank's result, per element type
}{
	{AlgoRing, 1, 3, 0, 0, OpSum,
		"706fde1d7bb660bd5f333667e56170fb4413b90e8fd6af2c3fa9861f0aef3ce0",
		"d5221052bc2de602b30e5f412ea643be8bf659598db72a1e2f18444a324ff2f0"},
	{AlgoRing, 5, 1, 0, 0, OpSum,
		"9d4cc1c533be559b1744c04c52ca53c47ec3b8fe637feaad2f20f35df079cb75",
		"a5eeb6794aabd21062caa7a5e37e15a802d56e6b9f1e453723fec8b1c54395dc"},
	{AlgoRing, 2, 3, 0, 0, OpSum,
		"0e4228712d9f98adb9372b65c0087ead684d156a2321a2a470ff96297952d206",
		"1fb165eb5cf3863fd1d081cd906770a4e538fd96d7aa88e0f15988420110157b"},
	{AlgoPipelinedRing, 1, 3, 0, 0, OpSum,
		"706fde1d7bb660bd5f333667e56170fb4413b90e8fd6af2c3fa9861f0aef3ce0",
		"d5221052bc2de602b30e5f412ea643be8bf659598db72a1e2f18444a324ff2f0"},
	{AlgoPipelinedRing, 5, 1, 0, 0, OpSum,
		"9d4cc1c533be559b1744c04c52ca53c47ec3b8fe637feaad2f20f35df079cb75",
		"a5eeb6794aabd21062caa7a5e37e15a802d56e6b9f1e453723fec8b1c54395dc"},
	{AlgoPipelinedRing, 2, 3, 0, 0, OpSum,
		"0e4228712d9f98adb9372b65c0087ead684d156a2321a2a470ff96297952d206",
		"1fb165eb5cf3863fd1d081cd906770a4e538fd96d7aa88e0f15988420110157b"},
	{AlgoRecursiveDoubling, 1, 3, 0, 0, OpSum,
		"5a46ab9e80a8dc2c8cb10ca6c9865f631204c15f838b613fe7c1cfb882c7ddc1",
		"1bff16dd323944f23f94397af54a26e7a5e76767065e215c0629300705ba5833"},
	{AlgoRecursiveDoubling, 5, 1, 0, 0, OpSum,
		"6d6129599b91a36dedf30dd89eab07e891bb6b7a2e2bf31f301f1f99558cd2d4",
		"ddddd9712b3469627bf90277b7b55042fc3ce5d191cf906fbf250b13b23d4ef0"},
	{AlgoRecursiveDoubling, 2, 3, 0, 0, OpSum,
		"44e35525bdc3fba935cf8fd48d6db5aa79209e0153626cf53756ffadc970d2d9",
		"714fa17bec9a328367274913b3a38ef32e88767e77ea961b10cf6c11e69ab4e5"},
	{AlgoHierarchical, 1, 3, 0, 0, OpSum,
		"3b612a7b556cf11fda8ed4d3c6d04df4625707e08e55e2141263d559f643065c",
		"9402667790e02f28b8896015e1e60bd5a692aacf429b1c9b044f3c0e583bae43"},
	{AlgoHierarchical, 1, 5, 0, 0, OpSum,
		"9bc91ace78db7a1e3b5f42f5f9112dd01b322127eaaadf80beb5f67166c4122e",
		"0c6d8459a9e34f0284198e4467d1944a34821f1c263e404cd2f630c55d285155"},
	{AlgoHierarchical, 2, 3, 0, 0, OpSum,
		"83858d56c6f803e64bb62cf829caa64935e6e451241e765e175e5b03f742663e",
		"20cd43ae654fae58de9d65b7a590e01387dc8339c7170bc88aa21910be686946"},
	{AlgoRing, 5, 1, 0, 0, OpProd,
		"1b48c1ec9be03a5795eef4c40224327d495c402d0c4449d87abf23e87a46be5d",
		"41f6bb5822190c81233ed5c43a937d5af10749cebaf813635506ba5ea71af6a5"},
	{AlgoRing, 5, 1, 0, 0, OpMax,
		"08aeab47e8a28bb4a9dd551d78985f009f856fa6161ad9dc9e8d91a45381036f",
		"12ef6eeacac0c9b9de8b452bb010c07f6cb4c68ca14251b5d5725d4c06615f7d"},
	{AlgoRing, 5, 1, 0, 0, OpMin,
		"9680d5ce1d6edec0de2a88feefae6ef60a81d288a298b9ba3d4eaabf0129e6d3",
		"cbedcf7effc87ae604568e1280866f42ef692c05a71dd00e62dcf8a09f0318d0"},
	// Worlds 2 and 4 (world 4 is the data-plane benchmark's).
	{AlgoRing, 1, 2, 0, 0, OpSum,
		"a713da04251831d10ef71d2d69ea72aeb5456d1e8639932c3c32531b032443e8",
		"bbf4b2188c4491c236ec7782018a7a4b7e985113898a4393d0d535840f5d7131"},
	{AlgoRing, 4, 1, 0, 0, OpSum,
		"712c7f20a12eaf904f41d242f22d8faa98a2b67b9f2549f1c5e8e0d2bf38f385",
		"46b6168aa0ca0a6f4b1ccbe04e7df8e9cf6e507fccf89179d35c9dd00afec416"},
	{AlgoRecursiveDoubling, 4, 1, 0, 0, OpSum,
		"7547214031b5fc7955a568107a6caa1e3314cfb2404a5c9373d1e43303004ed3",
		"a241b59270a12f67d72bbe63a3c5bbb3224179b6c3b28fe4c4911548c9746169"},
	{AlgoHierarchical, 2, 2, 0, 0, OpSum,
		"534db72fe8e8a6fbe01d8eba36dc87bfbd9d0b90724a73b93f224ff8b16f74bf",
		"1d8e8311d459bf125986d539c046c5546ca2d164cb7e90f1aaada57e6a46debf"},
	// Three and four node leaders: the leader ring's allgather forwards
	// chunks it received, which two leaders never do.
	{AlgoHierarchical, 3, 2, 0, 0, OpSum,
		"630474e1432948abcc8a9759c6f43c8111c5de4c30af62e8d425a51d6bdc2522",
		"0a2d2fd54ce700ce54ddd53922b710188944d987b0f9253ba237f493e6eec9e3"},
	{AlgoHierarchical, 4, 2, 0, 0, OpSum,
		"60373357f21cadb213fdbb73d8ad6cee582048553b5f4dda769d67dd747c354f",
		"2d268b9cda3c8b0926921bdff98391d402cc4d0bf914903d6004761717876a48"},
	// Multi-chunk pipelines: every allgather step moves K chunks.
	{AlgoPipelinedRing, 1, 2, 3, 0, OpSum,
		"a713da04251831d10ef71d2d69ea72aeb5456d1e8639932c3c32531b032443e8",
		"bbf4b2188c4491c236ec7782018a7a4b7e985113898a4393d0d535840f5d7131"},
	{AlgoPipelinedRing, 1, 2, 8, 0, OpSum,
		"a713da04251831d10ef71d2d69ea72aeb5456d1e8639932c3c32531b032443e8",
		"bbf4b2188c4491c236ec7782018a7a4b7e985113898a4393d0d535840f5d7131"},
	{AlgoPipelinedRing, 1, 3, 3, 0, OpSum,
		"706fde1d7bb660bd5f333667e56170fb4413b90e8fd6af2c3fa9861f0aef3ce0",
		"d5221052bc2de602b30e5f412ea643be8bf659598db72a1e2f18444a324ff2f0"},
	{AlgoPipelinedRing, 4, 1, 3, 0, OpSum,
		"712c7f20a12eaf904f41d242f22d8faa98a2b67b9f2549f1c5e8e0d2bf38f385",
		"46b6168aa0ca0a6f4b1ccbe04e7df8e9cf6e507fccf89179d35c9dd00afec416"},
	{AlgoPipelinedRing, 4, 1, 8, 0, OpSum,
		"712c7f20a12eaf904f41d242f22d8faa98a2b67b9f2549f1c5e8e0d2bf38f385",
		"46b6168aa0ca0a6f4b1ccbe04e7df8e9cf6e507fccf89179d35c9dd00afec416"},
	{AlgoPipelinedRing, 5, 1, 8, 0, OpSum,
		"9d4cc1c533be559b1744c04c52ca53c47ec3b8fe637feaad2f20f35df079cb75",
		"a5eeb6794aabd21062caa7a5e37e15a802d56e6b9f1e453723fec8b1c54395dc"},
	{AlgoPipelinedRing, 4, 1, 8, 0, OpMax,
		"885e00a68bfa37b68a3c24538358bedf18e0cf62dbd7fe162b58d806ef144d43",
		"697c1afc6ed2e3aa8912f40e40a20884d61f0eaa8708d30fc98aad9fdc517281"},
	// Empty segments and chunks travel as empty payloads.
	{AlgoPipelinedRing, 4, 1, 8, 29, OpSum,
		"df12508695de8bff1a5ba4b33c39d81d6e0af2e655ace59aeb7ce7227457e535",
		"444ad30e178a49b178abbd57480ef251673dd3e21012351d474f2a22f78ae78d"},
	{AlgoPipelinedRing, 4, 1, 3, 3, OpSum,
		"619f95f185ef441a85021071c6fe363386f939ec60f5cd5786cf9fd0e182b415",
		"9880e76eed190b78d9d62e8f4c67af0241184997cd229e5e6a2615f9bf019c24"},
	{AlgoRing, 4, 1, 0, 3, OpSum,
		"619f95f185ef441a85021071c6fe363386f939ec60f5cd5786cf9fd0e182b415",
		"9880e76eed190b78d9d62e8f4c67af0241184997cd229e5e6a2615f9bf019c24"},
	// The auto schedule: the tree, and at 40009 elements the ring branch.
	{AlgoAuto, 1, 3, 0, 20011, OpSum,
		"50aff4ceb244dca59a7ddcb95854ae04fdbbfbf287bf5633c5a567ac98496a95",
		"02abc35ca6b6b79758e54aaf299544de0aad038cfb3697460c0b41ee176fdeff"},
	{AlgoAuto, 4, 1, 0, 20011, OpSum,
		"52801db7809acd04d007f593b27d099752347205838459305aa1c3599e6017d8",
		"72a5745cc7488f91bcd8bbe0b897e89f72d7f4bded6c2ca51d6a689a6a610050"},
	{AlgoAuto, 5, 1, 0, 20011, OpSum,
		"6ac56e43c059aa78636e87b333b7471acc6be8f48f75f9cf64ecef389136b1c4",
		"daf0e2da3079e3cb2768db14d185706034725456df27fec6d5e15de81a90e77f"},
	{AlgoAuto, 4, 1, 0, 0, OpSum,
		"8bb875bd277fbe8fa974e078a6dca5991bb5496bace1e24d6673a83ce0ae8b93",
		"4065c2255be45d808c35e16375a62be08e2b4bad858fb7049b435dca84e93062"},
	{AlgoAuto, 4, 1, 0, 40009, OpSum,
		"842c94b0d898797b09cddd6f1723b33586d9fb1ea569cf246e5f64201c48b365",
		"641f4c7c4fa728c66b80ada48cd27700d68c7ec0ce314b41e31a8007f4bb7ce0"},
}

// fp16GoldenInput is rank's seeded input: mostly normal values spread
// over the binary16 range, plus binary16 subnormals, values exactly on
// and next to rounding ties, ±65504, values that overflow to ±Inf,
// signed zeros and float32-subnormal or float32-overflowing float64s.
func fp16GoldenInput(rank, n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1), 65504, -65504, 65519, 65520, -65520, 1e5, -1e6,
		0x1p-24, -0x1p-24, 0x1p-25, 0x1.8p-25, -0x1p-26, 0x1p-14, 0x1.ff8p-15,
		1e-40, -1e-45, 1e300, -1e300, 1e-300,
	}
	rng := rand.New(rand.NewSource(int64(4242 + rank)))
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(16) {
		case 0:
			v[i] = specials[rng.Intn(len(specials))]
		case 1, 2:
			v[i] = (rng.Float64()*2 - 1) * 0x1p-14 // binary16 subnormal range
		case 3, 4:
			// A float32 whose low 13 mantissa bits sit at or next to
			// the binary16 rounding tie.
			low := []uint32{0, 0xfff, 0x1000, 0x1001, 0x1fff}[rng.Intn(5)]
			b := uint32(rng.Intn(2))<<31 | uint32(103+rng.Intn(40))<<23 | uint32(rng.Intn(1<<10))<<13 | low
			v[i] = float64(math.Float32frombits(b))
		default:
			v[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(36)-24)
		}
	}
	return v
}

// fp16ResultHash hashes a result's bits. NaN payloads are canonical:
// which NaN an Inf-Inf produces is the FPU's choice, not the codec's.
func fp16ResultHash[T float32 | float64](v []T) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		if math.IsNaN(float64(x)) {
			x = T(math.NaN())
		}
		switch any(x).(type) {
		case float32:
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(float32(x)))
			h.Write(b[:4])
		default:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(x)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenName names a case's subtest; a non-default chunk count or
// length shows as a /k or /n element, and a hierarchical ring of more
// than two node leaders as a /leaders element.
func goldenName(algo AllreduceAlgo, op Op, nodes, ppn, chunks, elems int, typ string) string {
	name := fmt.Sprintf("%v/%v/world%d", algo, op, nodes*ppn)
	if algo == AlgoHierarchical && nodes > 2 {
		name += fmt.Sprintf("/leaders%d", nodes)
	}
	if chunks != 0 {
		name += fmt.Sprintf("/k%d", chunks)
	}
	if elems != 0 {
		name += fmt.Sprintf("/n%d", elems)
	}
	return name + "/" + typ
}

// goldenShape resolves a case's chunk count and length defaults.
func goldenShape(chunks, elems int) (int, int) {
	if chunks == 0 {
		chunks = DefaultPipelineChunks
	}
	if elems == 0 {
		elems = 9001
	}
	return chunks, elems
}

// runFP16Golden runs one fp16 allreduce case on a world of size ranks
// built by run, and returns every rank's result hash, in rank order.
func runFP16Golden[T float32 | float64](size int, run func(body func(c *Comm) error), algo AllreduceAlgo, chunks, elems int, op Op) []string {
	hashes := make([]string, size)
	var mu sync.Mutex
	run(func(c *Comm) error {
		in := fp16GoldenInput(c.Rank(), elems)
		data := make([]T, elems)
		for i, x := range in {
			data[i] = T(x)
		}
		opts := AllreduceOptions{Algo: algo, Chunks: chunks, Codec: CodecFP16}
		if err := AllreduceOpts(c, data, op, opts); err != nil {
			return err
		}
		mu.Lock()
		hashes[c.Rank()] = fp16ResultHash(data)
		mu.Unlock()
		return nil
	})
	return hashes
}

// TestFP16GoldenOutputs: every fp16 schedule reproduces its recorded
// result bit for bit, on every rank, for float32 and float64 tensors.
func TestFP16GoldenOutputs(t *testing.T) {
	for _, tc := range fp16GoldenCases {
		chunks, elems := goldenShape(tc.chunks, tc.elems)
		for _, typ := range []string{"f32", "f64"} {
			t.Run(goldenName(tc.algo, tc.op, tc.nodes, tc.ppn, tc.chunks, tc.elems, typ), func(t *testing.T) {
				run := func(body func(c *Comm) error) { world(t, tc.nodes, tc.ppn, body) }
				var got []string
				want := tc.f32
				if typ == "f32" {
					got = runFP16Golden[float32](tc.nodes*tc.ppn, run, tc.algo, chunks, elems, tc.op)
				} else {
					got = runFP16Golden[float64](tc.nodes*tc.ppn, run, tc.algo, chunks, elems, tc.op)
					want = tc.f64
				}
				for r, h := range got {
					if h != want {
						t.Errorf("rank %d: result sha256 %s, want %s", r, h, want)
					}
				}
			})
		}
	}
}

// TestFP16GoldenOutputsTCP replays the golden cases whose schedule does
// not depend on placement over loopback tcpnet, with ZeroCopyMin 1 so
// every fp16 chunk arrives as a lazy RawPayload viewing a pooled frame
// buffer, and requires the simulator's hashes. Ring allgathers forward
// those payloads, so a chunk used after its frame went back to the pool
// shows as a wrong hash, and one released twice or never shows in the
// pool count, which must be back at its baseline after every run.
// (Hierarchical groups by placement, which tcpnet does not report.)
func TestFP16GoldenOutputsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback sockets")
	}
	for _, tc := range fp16GoldenCases {
		if tc.algo == AlgoHierarchical {
			continue
		}
		chunks, elems := goldenShape(tc.chunks, tc.elems)
		size := tc.nodes * tc.ppn
		for _, typ := range []string{"f32", "f64"} {
			t.Run(goldenName(tc.algo, tc.op, tc.nodes, tc.ppn, tc.chunks, tc.elems, typ), func(t *testing.T) {
				bufs0 := tcpnet.OutstandingFrameBufs()
				run := func(body func(c *Comm) error) { loopbackWorld(t, size, body) }
				var got []string
				want := tc.f32
				if typ == "f32" {
					got = runFP16Golden[float32](size, run, tc.algo, chunks, elems, tc.op)
				} else {
					got = runFP16Golden[float64](size, run, tc.algo, chunks, elems, tc.op)
					want = tc.f64
				}
				for r, h := range got {
					if h != want {
						t.Errorf("rank %d: result sha256 %s, want %s", r, h, want)
					}
				}
				if !vtime.WaitUntil(5*time.Second, func() bool { return tcpnet.OutstandingFrameBufs() == bufs0 }) {
					t.Errorf("%d pooled frame buffers outstanding, %d before the run", tcpnet.OutstandingFrameBufs(), bufs0)
				}
			})
		}
	}
}

// loopbackWorld runs body at every rank of a fully connected loopback
// tcpnet world of n ranks, with every payload on the zero-copy paths,
// and closes the endpoints before it returns.
func loopbackWorld(t *testing.T, n int, body func(c *Comm) error) {
	t.Helper()
	cfg := tcpnet.Config{DialRetries: 4, DialBackoff: 20 * time.Millisecond, DialTimeout: time.Second, ZeroCopyMin: 1}
	eps := make([]*tcpnet.Endpoint, n)
	peers := make(map[transport.ProcID]string, n)
	procs := make([]transport.ProcID, n)
	for i := range eps {
		ep, err := tcpnet.Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
		peers[transport.ProcID(i)] = ep.Addr()
		procs[i] = transport.ProcID(i)
	}
	for i, ep := range eps {
		ep.Start(transport.ProcID(i), peers)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comm, err := World(Attach(ep), procs)
			if err == nil {
				err = body(comm)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
