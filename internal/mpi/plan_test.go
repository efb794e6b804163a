package mpi

import "testing"

// PlanAllreduce is the only resolver of a schedule: a pure function of
// (bytes, world, options). AlgoAuto takes the pipelined ring wherever
// PipelineChunksFor splits a segment, and otherwise stays Allreduce's
// static pick: the tree at 64 KiB on the wire and below, the plain ring
// above (the fp16 golden case at 40009 elements pins that branch to the
// explicit ring's output). So the pipelined schedule is never planned
// below the chunking floor, where it would be the plain ring plus chunk
// bookkeeping. Explicit picks pass through, a pipelined one defaulting
// its chunk count.
func TestPlanAllreduce(t *testing.T) {
	auto := AllreduceOptions{}
	for _, tc := range []struct {
		name  string
		bytes int64
		world int
		o     AllreduceOptions
		want  AllreducePlan
	}{
		{"auto/8KiB/world4", 8 << 10, 4, auto, AllreducePlan{}},
		{"auto/64KiB/world4", 64 << 10, 4, auto, AllreducePlan{}},
		{"auto/256KiB/world4", 256 << 10, 4, auto, AllreducePlan{}},
		{"auto/1MiB/world4", 1 << 20, 4, auto, AllreducePlan{}},
		{"auto/4MiB/world4", 4 << 20, 4, auto, AllreducePlan{Algo: AlgoPipelinedRing, Chunks: 2}},
		{"auto/16MiB/world4", 16 << 20, 4, auto, AllreducePlan{Algo: AlgoPipelinedRing, Chunks: 8}},
		{"auto/16MiB/world3", 16 << 20, 3, auto, AllreducePlan{Algo: AlgoPipelinedRing, Chunks: 8}},
		{"auto/16MiB/world1", 16 << 20, 1, auto, AllreducePlan{}},
		{"auto/16MiB/world4/fp16", 16 << 20, 4, AllreduceOptions{Codec: CodecFP16},
			AllreducePlan{Algo: AlgoPipelinedRing, Chunks: 8, Codec: CodecFP16}},
		{"ring/16MiB/world4/fp16", 16 << 20, 4, AllreduceOptions{Algo: AlgoRing, Codec: CodecFP16},
			AllreducePlan{Algo: AlgoRing, Codec: CodecFP16}},
		{"recdouble/1MiB/world4", 1 << 20, 4, AllreduceOptions{Algo: AlgoRecursiveDoubling},
			AllreducePlan{Algo: AlgoRecursiveDoubling}},
		{"hier/16MiB/world4", 16 << 20, 4, AllreduceOptions{Algo: AlgoHierarchical},
			AllreducePlan{Algo: AlgoHierarchical}},
		{"pipelined/16MiB/world4", 16 << 20, 4, AllreduceOptions{Algo: AlgoPipelinedRing},
			AllreducePlan{Algo: AlgoPipelinedRing, Chunks: 8}},
		{"pipelined/1MiB/world4", 1 << 20, 4, AllreduceOptions{Algo: AlgoPipelinedRing},
			AllreducePlan{Algo: AlgoPipelinedRing, Chunks: 1}},
		{"pipelined/16MiB/world4/k3", 16 << 20, 4, AllreduceOptions{Algo: AlgoPipelinedRing, Chunks: 3},
			AllreducePlan{Algo: AlgoPipelinedRing, Chunks: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := PlanAllreduce(tc.bytes, tc.world, tc.o); got != tc.want {
				t.Errorf("PlanAllreduce(%d, %d, %+v) = %v, want %v", tc.bytes, tc.world, tc.o, got, tc.want)
			}
		})
	}
	if s := (AllreducePlan{Algo: AlgoPipelinedRing, Chunks: 8, Codec: CodecFP16}).String(); s != "algo=pipelined chunks=8 codec=fp16" {
		t.Fatalf("plan string = %q", s)
	}
}
