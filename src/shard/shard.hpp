// Umbrella header for the sharded streaming serving tier.
//
//   ShardOwnerMap        — vertex -> shard: base Partition + seeded hash
//                          for streamed-in ids
//   ShardedCut           — immutable per-shard version vector; queries
//                          only ever read an adopted cut
//   ShardedStreamingGraph— N partition-routed StreamingGraph shards
//                          behind one facade: broadcast vertex space,
//                          owner-routed edges/features, halo mirrors
//   ShardedSampler       — bit-identical GraphSAGE sampling over a cut
//   CutAdopter           — background version-vector advancer
//
// stream/UpdateGenerator drives a ShardedStreamingGraph as well as a
// flat StreamingGraph.
#pragma once

#include "shard/cut_adopter.hpp"
#include "shard/sharded_graph.hpp"
#include "shard/sharded_sampler.hpp"
