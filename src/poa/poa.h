/**
 * @file
 * Partial-order alignment and consensus — the spoa/poa kernel.
 *
 * Faithful to Racon's polishing core (paper §III, Fig 2f): reads
 * covering a window are aligned one by one to a partial-order graph
 * (Lee et al. 2002); matched bases fuse into existing nodes, mismatches
 * become "aligned" sibling nodes and insertions add new nodes. Edge
 * weights accumulate read support, and the consensus is extracted with
 * the heaviest-bundle algorithm.
 *
 * Alignment of a sequence to the graph costs
 * O((2 n_p + 1) n |V|) cell updates, where n_p is the mean in-degree —
 * the irregular-DP structure the paper contrasts with plain
 * Smith-Waterman. Each predecessor-row pass and insertion scan runs
 * through gb::simd's runtime-dispatched row kernel (AVX2 / SSE4.2 /
 * scalar, simd/poa_engine.h); alignments, the graph and the consensus
 * are bit-identical at every GB_SIMD_LEVEL, and probes record the same
 * stream at every level.
 */
#ifndef GB_POA_POA_H
#define GB_POA_POA_H

#include <span>
#include <vector>

#include "arch/probe.h"
#include "util/common.h"

namespace gb {

/** Alignment scoring (Racon defaults: linear gap). */
struct PoaParams
{
    i32 match = 3;
    i32 mismatch = -5;
    i32 gap = -4;
};

/** One aligned column: node id (or -1 = gap) and query pos (or -1). */
struct PoaAlignedPair
{
    i32 node;
    i32 qpos;
};

/** Partial-order graph accumulating window reads. */
class PoaGraph
{
  public:
    explicit PoaGraph(const PoaParams& params = {}) : params_(params) {}

    /**
     * Align `codes` to the graph and merge it in.
     *
     * The first sequence simply becomes a chain. Weight is the
     * support added to every traversed edge (Racon uses base
     * qualities; 1 works for uniform support).
     */
    template <typename Probe>
    void addSequence(std::span<const u8> codes, Probe& probe,
                     u32 weight = 1);

    /** Heaviest-bundle consensus of the current graph. */
    std::vector<u8> consensus() const;

    u64 numNodes() const { return nodes_.size(); }
    u64 numEdges() const;
    u64 cellUpdates() const { return cell_updates_; }

    /** Mean in-degree n_p (complexity/irregularity metric). */
    double meanInDegree() const;

    /** Largest in-degree of any node (stresses the packed traceback). */
    u64 maxInDegree() const;

  private:
    struct Node
    {
        u8 base;
        std::vector<u32> preds;
        std::vector<u32> pred_weights;
        std::vector<u32> succs;
        std::vector<u32> aligned; ///< sibling nodes (other bases)
    };

    /** Align codes to the graph; pairs in increasing order. */
    template <typename Probe>
    std::vector<PoaAlignedPair> align(std::span<const u8> codes,
                                      Probe& probe) const;

    /** Merge an alignment into the graph. */
    void fuse(const std::vector<PoaAlignedPair>& alignment,
              std::span<const u8> codes, u32 weight);

    u32 addNode(u8 base);
    void addEdge(u32 from, u32 to, u32 weight);
    void recomputeTopoOrder();

    PoaParams params_;
    std::vector<Node> nodes_;
    std::vector<u32> topo_order_; ///< node ids in topological order
    mutable u64 cell_updates_ = 0; ///< updated by const align()
};

/** One consensus task: the reads of one window (Racon chunk). */
struct PoaTask
{
    std::vector<std::vector<u8>> reads;
};

/** Consensus of a window task (the per-thread unit in Racon). */
template <typename Probe>
std::vector<u8>
poaConsensus(const PoaTask& task, const PoaParams& params, Probe& probe,
             u64* cell_updates = nullptr);

/** Uninstrumented convenience wrapper. */
std::vector<u8> poaConsensus(const PoaTask& task,
                             const PoaParams& params = {});

} // namespace gb

#endif // GB_POA_POA_H
