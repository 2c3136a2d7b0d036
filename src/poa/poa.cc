#include "poa/poa.h"

#include <algorithm>
#include <limits>

#include "simd/poa_engine.h"

namespace gb {

namespace {

constexpr i32 kNegInf = std::numeric_limits<i32>::min() / 4;

/** Traceback moves (low 2 bits of a packed traceback byte). */
enum class Move : u8 { kNone = 0, kDiag = 1, kDelNode = 2, kInsSeq = 3 };

/**
 * Packed traceback cell: (pred-index << 2) | move. The 6-bit index
 * field saturates at kPoaPredOverflow; the traceback resolves the
 * sentinel by rescanning the cell's candidates (see resolvePred in
 * align()). One byte per cell replaces the former Move byte plus i32
 * from_row — ~4x less traceback memory traffic.
 */
constexpr u32 kPoaPredOverflow = 63;

inline u8
packTb(u32 pred_idx, Move mv)
{
    const u32 idx =
        pred_idx < kPoaPredOverflow ? pred_idx : kPoaPredOverflow;
    return static_cast<u8>(idx << 2 | static_cast<u32>(mv));
}

} // namespace

u32
PoaGraph::addNode(u8 base)
{
    nodes_.push_back(Node{base, {}, {}, {}, {}});
    return static_cast<u32>(nodes_.size() - 1);
}

void
PoaGraph::addEdge(u32 from, u32 to, u32 weight)
{
    Node& dst = nodes_[to];
    for (size_t i = 0; i < dst.preds.size(); ++i) {
        if (dst.preds[i] == from) {
            dst.pred_weights[i] += weight;
            return;
        }
    }
    dst.preds.push_back(from);
    dst.pred_weights.push_back(weight);
    nodes_[from].succs.push_back(to);
}

u64
PoaGraph::numEdges() const
{
    u64 n = 0;
    for (const auto& node : nodes_) n += node.preds.size();
    return n;
}

u64
PoaGraph::maxInDegree() const
{
    u64 widest = 0;
    for (const auto& node : nodes_) {
        widest = std::max<u64>(widest, node.preds.size());
    }
    return widest;
}

double
PoaGraph::meanInDegree() const
{
    if (nodes_.empty()) return 0.0;
    return static_cast<double>(numEdges()) /
           static_cast<double>(nodes_.size());
}

void
PoaGraph::recomputeTopoOrder()
{
    // Kahn's algorithm.
    topo_order_.clear();
    topo_order_.reserve(nodes_.size());
    std::vector<u32> in_deg(nodes_.size(), 0);
    for (const auto& node : nodes_) {
        for (u32 s : node.succs) ++in_deg[s];
    }
    std::vector<u32> queue;
    for (u32 v = 0; v < nodes_.size(); ++v) {
        if (in_deg[v] == 0) queue.push_back(v);
    }
    while (!queue.empty()) {
        const u32 v = queue.back();
        queue.pop_back();
        topo_order_.push_back(v);
        for (u32 s : nodes_[v].succs) {
            if (--in_deg[s] == 0) queue.push_back(s);
        }
    }
    if (topo_order_.size() != nodes_.size()) {
        throw InternalError("POA graph is cyclic");
    }
}

template <typename Probe>
std::vector<PoaAlignedPair>
PoaGraph::align(std::span<const u8> codes, Probe& probe) const
{
    const i32 n = static_cast<i32>(codes.size());
    const i32 v = static_cast<i32>(nodes_.size());
    // Rank of each node in topo order (+1; row 0 = virtual start).
    std::vector<i32> rank_of(nodes_.size());
    for (i32 r = 0; r < v; ++r) rank_of[topo_order_[r]] = r;

    const i32 rows = v + 1;
    const i32 cols = n + 1;
    // DP buffers are reused across alignments (like spoa's engine);
    // fresh allocations every window would dominate memory traffic.
    // No -inf / kNone fill: every cell of every row is written before
    // it is read — row 0 explicitly, rows 1..v by the unconditional
    // first predecessor pass plus the insertion fixup.
    static thread_local std::vector<i32> h;
    static thread_local std::vector<u8> tb;
    static thread_local std::vector<i32> tb32;
    h.resize(static_cast<size_t>(rows) * cols);
    tb.resize(static_cast<size_t>(rows) * cols);
    tb32.resize(static_cast<size_t>(cols));
    auto at = [cols](i32 r, i32 j) {
        return static_cast<size_t>(r) * cols + j;
    };

    const simd::SimdLevel level = simd::activeSimdLevel();
    const simd::PoaRowPassFn row_pass = simd::poaRowPassFor(level);
    const simd::PoaInsScanFn ins_scan = simd::poaInsScanFor(level);

    // Row 0: leading insertions (global in the query).
    for (i32 j = 0; j <= n; ++j) {
        h[at(0, j)] = j * params_.gap;
        tb[at(0, j)] = packTb(0, Move::kInsSeq);
    }

    for (i32 r = 0; r < v; ++r) {
        const u32 node_id = topo_order_[r];
        const Node& node = nodes_[node_id];
        const i32 row = r + 1;

        // Predecessor rows: real preds, or the virtual start row.
        static thread_local std::vector<i32> pred_rows;
        pred_rows.clear();
        if (node.preds.empty()) {
            pred_rows.push_back(0);
        } else {
            for (u32 p : node.preds) {
                pred_rows.push_back(rank_of[p] + 1);
            }
        }

        // j = 0: only node deletions (the k = 0 candidate seeds the
        // cell — predecessor rows are finite, so it always beats the
        // -inf a fresh row would hold).
        for (size_t k = 0; k < pred_rows.size(); ++k) {
            const i32 cand = h[at(pred_rows[k], 0)] + params_.gap;
            if (k == 0 || cand > h[at(row, 0)]) {
                h[at(row, 0)] = cand;
                tb[at(row, 0)] =
                    packTb(static_cast<u32>(k), Move::kDelNode);
            }
        }

        // Columns 1..n: one row pass per predecessor (diag before
        // del, strictly-greater — the scalar loop's candidate order,
        // with the per-pred passes interchanged over j). Insertions
        // only ever propagate left to right over finalized cells, so
        // the serial fixup afterwards sees exactly the values the
        // scalar interleaved loop sees. The first pass seeds best/tb32
        // unconditionally, so neither needs clearing between rows.
        for (size_t k = 0; k < pred_rows.size(); ++k) {
            simd::PoaRowPassArgs pass;
            pass.first = k == 0;
            pass.pred = &h[at(pred_rows[k], 0)];
            pass.best = &h[at(row, 0)];
            pass.tb32 = tb32.data();
            pass.codes = codes.data();
            pass.n = static_cast<u32>(n);
            pass.match = params_.match;
            pass.mismatch = params_.mismatch;
            pass.gap = params_.gap;
            pass.base = node.base;
            pass.tb_diag = packTb(static_cast<u32>(k), Move::kDiag);
            pass.tb_del =
                packTb(static_cast<u32>(k), Move::kDelNode);
            row_pass(pass);
        }
        // Insertion-gap fixup (max-plus prefix scan); narrows the
        // staged traceback lanes into the packed byte matrix.
        simd::PoaInsScanArgs scan;
        scan.best = &h[at(row, 0)];
        scan.tb32 = tb32.data();
        scan.tb = &tb[at(row, 0)];
        scan.n = static_cast<u32>(n);
        scan.gap = params_.gap;
        scan.tb_ins = packTb(0, Move::kInsSeq);
        ins_scan(scan);
        cell_updates_ += static_cast<u64>(n) *
                         std::max<size_t>(1, pred_rows.size());
        // SIMD model: spoa processes rows in vector registers with
        // shifts to reach the previous column.
        probe.op(OpClass::kVecAlu,
                 ceilDiv<u64>(static_cast<u64>(n), 8) *
                     (2 * pred_rows.size() + 1));
        probe.op(OpClass::kIntAlu, 4 + pred_rows.size());
        probe.load(&h[at(row - 1 >= 0 ? row - 1 : 0, 0)],
                   static_cast<u32>(cols * 4));
        probe.store(&h[at(row, 0)], static_cast<u32>(cols * 4));
        probe.branch(50, node.preds.size() > 1);
    }

    // Global end: best over sink rows at column n.
    i32 best_row = 0;
    i32 best_score = kNegInf;
    for (i32 r = 0; r < v; ++r) {
        if (!nodes_[topo_order_[r]].succs.empty()) continue;
        if (h[at(r + 1, n)] > best_score) {
            best_score = h[at(r + 1, n)];
            best_row = r + 1;
        }
    }
    if (v == 0) best_row = 0;

    // Traceback over the packed byte matrix. A cell's 6-bit field
    // indexes its row's predecessor list; the kPoaPredOverflow
    // sentinel is resolved by rescanning the candidates in scalar
    // order — the winner is the FIRST candidate equal to the cell's
    // final score, because strictly-greater updates guarantee every
    // earlier candidate is strictly smaller.
    static thread_local std::vector<i32> prs;
    auto predRowsOf = [&](i32 row_r) {
        prs.clear();
        const Node& nd = nodes_[topo_order_[row_r - 1]];
        if (nd.preds.empty()) {
            prs.push_back(0);
        } else {
            for (u32 p : nd.preds) prs.push_back(rank_of[p] + 1);
        }
    };
    auto resolvePred = [&](i32 row_r, i32 col_j, u8 packed) -> i32 {
        const u32 idx = packed >> 2;
        predRowsOf(row_r);
        if (idx < kPoaPredOverflow) return prs[idx];
        const Node& nd = nodes_[topo_order_[row_r - 1]];
        const i32 cur = h[at(row_r, col_j)];
        i32 sub = 0;
        if (col_j > 0) {
            const u8 c = codes[col_j - 1];
            sub = c == nd.base && c < 4 ? params_.match
                                        : params_.mismatch;
        }
        for (i32 pr : prs) {
            if (col_j > 0 && h[at(pr, col_j - 1)] + sub == cur) {
                return pr;
            }
            if (h[at(pr, col_j)] + params_.gap == cur) return pr;
        }
        throw InternalError("POA traceback: predecessor not found");
    };

    std::vector<PoaAlignedPair> pairs;
    i32 r = best_row;
    i32 j = n;
    while (r > 0 || j > 0) {
        const u8 packed = tb[at(r, j)];
        const Move mv = static_cast<Move>(packed & 3);
        if (mv == Move::kDiag) {
            pairs.push_back(
                {static_cast<i32>(topo_order_[r - 1]), j - 1});
            r = resolvePred(r, j, packed);
            --j;
        } else if (mv == Move::kDelNode) {
            pairs.push_back(
                {static_cast<i32>(topo_order_[r - 1]), -1});
            r = resolvePred(r, j, packed);
        } else if (mv == Move::kInsSeq) {
            pairs.push_back({-1, j - 1});
            --j;
        } else {
            throw InternalError("POA traceback hit an unset cell");
        }
    }
    std::reverse(pairs.begin(), pairs.end());
    return pairs;
}

void
PoaGraph::fuse(const std::vector<PoaAlignedPair>& alignment,
               std::span<const u8> codes, u32 weight)
{
    i64 prev_node = -1;
    for (const auto& pair : alignment) {
        if (pair.qpos < 0) continue; // node deletion: nothing to add
        const u8 base = codes[static_cast<size_t>(pair.qpos)];
        i64 target = -1;
        if (pair.node >= 0) {
            const u32 node_id = static_cast<u32>(pair.node);
            if (nodes_[node_id].base == base) {
                target = node_id;
            } else {
                // Mismatch: reuse an aligned sibling with this base.
                for (u32 sib : nodes_[node_id].aligned) {
                    if (nodes_[sib].base == base) {
                        target = sib;
                        break;
                    }
                }
                if (target < 0) {
                    const u32 fresh = addNode(base);
                    // Link the full sibling group.
                    std::vector<u32> group = nodes_[node_id].aligned;
                    group.push_back(node_id);
                    for (u32 sib : group) {
                        nodes_[sib].aligned.push_back(fresh);
                        nodes_[fresh].aligned.push_back(sib);
                    }
                    target = fresh;
                }
            }
        } else {
            target = addNode(base); // insertion
        }
        if (prev_node >= 0) {
            addEdge(static_cast<u32>(prev_node),
                    static_cast<u32>(target), weight);
        }
        prev_node = target;
    }
    recomputeTopoOrder();
}

template <typename Probe>
void
PoaGraph::addSequence(std::span<const u8> codes, Probe& probe,
                      u32 weight)
{
    requireInput(!codes.empty(), "POA: empty sequence");
    if (nodes_.empty()) {
        // First sequence: plain chain.
        i64 prev = -1;
        for (u8 c : codes) {
            const u32 node = addNode(c);
            if (prev >= 0) {
                addEdge(static_cast<u32>(prev), node, weight);
            }
            prev = node;
        }
        recomputeTopoOrder();
        return;
    }
    const auto alignment = align(codes, probe);
    fuse(alignment, codes, weight);
}

std::vector<u8>
PoaGraph::consensus() const
{
    if (nodes_.empty()) return {};
    // Heaviest bundle: best-weight path through the DAG.
    std::vector<i64> score(nodes_.size(), 0);
    std::vector<i64> best_pred(nodes_.size(), -1);
    for (u32 id : topo_order_) {
        const Node& node = nodes_[id];
        for (size_t e = 0; e < node.preds.size(); ++e) {
            const i64 cand = score[node.preds[e]] +
                             static_cast<i64>(node.pred_weights[e]);
            if (cand > score[id]) {
                score[id] = cand;
                best_pred[id] = node.preds[e];
            }
        }
    }
    u32 best_node = topo_order_.front();
    i64 best_score = -1;
    for (u32 v = 0; v < nodes_.size(); ++v) {
        if (score[v] > best_score) {
            best_score = score[v];
            best_node = v;
        }
    }
    std::vector<u8> out;
    i64 cur = best_node;
    while (cur >= 0) {
        out.push_back(nodes_[static_cast<size_t>(cur)].base);
        cur = best_pred[static_cast<size_t>(cur)];
    }
    std::reverse(out.begin(), out.end());
    return out;
}

template <typename Probe>
std::vector<u8>
poaConsensus(const PoaTask& task, const PoaParams& params, Probe& probe,
             u64* cell_updates)
{
    PoaGraph graph(params);
    for (const auto& read : task.reads) {
        graph.addSequence(std::span<const u8>(read), probe);
    }
    if (cell_updates) *cell_updates = graph.cellUpdates();
    return graph.consensus();
}

std::vector<u8>
poaConsensus(const PoaTask& task, const PoaParams& params)
{
    NullProbe probe;
    return poaConsensus(task, params, probe, nullptr);
}

// Explicit instantiations for the supported probe types.
template void PoaGraph::addSequence<NullProbe>(std::span<const u8>,
                                               NullProbe&, u32);
template void PoaGraph::addSequence<CharProbe>(std::span<const u8>,
                                               CharProbe&, u32);
template std::vector<u8> poaConsensus<NullProbe>(const PoaTask&,
                                                 const PoaParams&,
                                                 NullProbe&, u64*);
template std::vector<u8> poaConsensus<CharProbe>(const PoaTask&,
                                                 const PoaParams&,
                                                 CharProbe&, u64*);

} // namespace gb
