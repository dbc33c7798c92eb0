#include "runtime/page_table.hh"

#include <string>

#include "common/logging.hh"
#include "runtime/fault_injection.hh"
#include "runtime/status.hh"

namespace moelight {

PageTable::PageTable(std::size_t numSeqs, std::size_t layers,
                     std::size_t pageTokens, PageCapacityModel model,
                     std::size_t capacity, PageTableHooks hooks)
    : numSeqs_(numSeqs),
      layers_(layers),
      pageTokens_(pageTokens),
      model_(model),
      capacity_(capacity),
      hooks_(std::move(hooks)),
      streams_(numSeqs * layers)
{
    fatalIf(numSeqs == 0, "page table for zero sequences");
    fatalIf(layers == 0, "page table for zero layers");
    fatalIf(pageTokens == 0, "KV page must hold at least one token");
    fatalIf(model == PageCapacityModel::Blocks && capacity == 0,
            "block-metered page table needs a block budget");
    fatalIf(!hooks_.allocBlock || !hooks_.copyBlock ||
                !hooks_.freeBlock,
            "page table needs all three storage hooks");
}

PageTable::Stream &
PageTable::at(SeqId seq, LayerIdx layer)
{
    panicIf(seq.value() >= numSeqs_ || layer.value() >= layers_,
            "KV slot (", seq, ",", layer, ") out of range");
    return streams_[seq.value() * layers_ + layer.value()];
}

const PageTable::Stream &
PageTable::at(SeqId seq, LayerIdx layer) const
{
    return const_cast<PageTable *>(this)->at(seq, layer);
}

PageTable::BlockMeta &
PageTable::meta(BlockId b)
{
    if (static_cast<std::size_t>(b.value()) >= meta_.size())
        meta_.resize(static_cast<std::size_t>(b.value()) + 1);
    return meta_[b.value()];
}

const PageTable::BlockMeta &
PageTable::meta(BlockId b) const
{
    panicIf(static_cast<std::size_t>(b.value()) >= meta_.size(),
            "unknown KV block ", b);
    return meta_[b.value()];
}

void
PageTable::ensureCapacity(SeqId seq, LayerIdx layer,
                          std::size_t len, std::size_t needTokens)
{
    auto fits = [&] {
        if (model_ == PageCapacityModel::Blocks)
            return residentBlocks_ < capacity_;
        return capacity_ == 0 ||
               residentTokens_ + needTokens <= capacity_;
    };
    while (!fits())
        if (!reclaim_ || !reclaim_())
            throw EngineError(
                ErrorCode::KvExhausted, "kv.alloc",
                std::string(model_ == PageCapacityModel::Blocks
                                ? "KV pool out of pages"
                                : "KV cache out of token capacity") +
                    " appending token " + std::to_string(len) +
                    " of (seq " + std::to_string(seq.value()) +
                    ", layer " + std::to_string(layer.value()) + ")");
}

BlockId
PageTable::allocFresh()
{
    BlockId b = hooks_.allocBlock();
    BlockMeta &m = meta(b);
    panicIf(m.resident, "allocBlock returned a resident block ", b);
    m = BlockMeta{};
    m.resident = true;
    ++residentBlocks_;
    return b;
}

void
PageTable::ref(BlockId b)
{
    BlockMeta &m = meta(b);
    if (m.streamRefs++ == 0)
        ++referencedBlocks_;
}

void
PageTable::releasePhysical(BlockId b)
{
    BlockMeta &m = meta(b);
    panicIf(!m.resident, "releasing non-resident KV block ", b);
    panicIf(residentTokens_ < m.tokens,
            "KV token accounting underflow");
    residentTokens_ -= m.tokens;
    --residentBlocks_;
    m.resident = false;
    m.tokens = 0;
    hooks_.freeBlock(b);
}

void
PageTable::deref(BlockId b)
{
    BlockMeta &m = meta(b);
    panicIf(m.streamRefs == 0, "deref of unreferenced KV block ", b);
    if (--m.streamRefs == 0) {
        --referencedBlocks_;
        if (m.pins == 0)
            releasePhysical(b);
    }
}

AppendSlot
PageTable::appendToken(SeqId seq, LayerIdx layer)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    Stream &st = at(seq, layer);
    std::size_t off = st.len % pageTokens_;
    // Injection cadence follows the capacity model's granularity:
    // once per block allocation for float pages, once per append for
    // the token-metered quantized pages.
    if (model_ == PageCapacityModel::Tokens || off == 0)
        FaultInjector::check("kv.alloc");

    AppendSlot slot;
    if (off == 0) {
        ensureCapacity(seq, layer, st.len, 1);
        BlockId b = allocFresh();
        ref(b);
        st.blocks.push_back(b);
        slot.fresh = true;
    } else {
        BlockId last = st.blocks.back();
        BlockMeta &m = meta(last);
        if (m.streamRefs > 1 || m.pins > 0) {
            // Copy-on-write: another holder can see this open tail,
            // so appending in place would corrupt it. Take a private
            // copy of the prefix and release the shared original.
            // (The engines never hit this — shared prefix blocks are
            // always full — but the invariant is enforced here, not
            // by caller discipline.)
            ensureCapacity(seq, layer, st.len, off + 1);
            BlockId fresh = allocFresh();
            hooks_.copyBlock(fresh, last, off);
            meta(fresh).tokens = off;
            residentTokens_ += off;
            ref(fresh);
            deref(last);
            st.blocks.back() = fresh;
            slot.fresh = true;
            slot.copied = true;
        }
        if (model_ == PageCapacityModel::Tokens)
            ensureCapacity(seq, layer, st.len, 1);
    }
    BlockId b = st.blocks.back();
    meta(b).tokens += 1;
    residentTokens_ += 1;
    st.len += 1;
    slot.block = b;
    slot.offset = off;
    return slot;
}

void
PageTable::attachShared(SeqId seq, LayerIdx layer,
                        std::span<const BlockId> blocks)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    Stream &st = at(seq, layer);
    panicIf(!st.blocks.empty() || st.len != 0,
            "attachShared to a non-empty stream (seq ", seq,
            ", layer ", layer, ")");
    for (BlockId b : blocks) {
        const BlockMeta &m = meta(b);
        panicIf(!m.resident, "attachShared to freed block ", b);
        panicIf(m.tokens != pageTokens_,
                "attachShared to a partial block ", b,
                " (only closed pages are shareable)");
    }
    st.blocks.assign(blocks.begin(), blocks.end());
    for (BlockId b : st.blocks)
        ref(b);
    st.len = st.blocks.size() * pageTokens_;
}

void
PageTable::pin(BlockId block)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    BlockMeta &m = meta(block);
    panicIf(!m.resident, "pin of non-resident KV block ", block);
    // A pinned block's token count cannot change (appends into it
    // copy-on-write), so the pinned-token counter only moves on the
    // 0<->1 pin transitions.
    if (m.pins++ == 0)
        pinnedTokens_ += m.tokens;
}

void
PageTable::unpin(BlockId block)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    BlockMeta &m = meta(block);
    if (!m.resident || m.pins == 0)
        throw EngineError(ErrorCode::KvDoubleFree, "kv.free",
                          "unpin of block " +
                              std::to_string(block.value()) +
                              " that holds no pin — double release");
    if (--m.pins == 0) {
        panicIf(pinnedTokens_ < m.tokens,
                "pinned KV token accounting underflow");
        pinnedTokens_ -= m.tokens;
        if (m.streamRefs == 0)
            releasePhysical(block);
    }
}

bool
PageTable::sequenceLive(SeqId seq) const
{
    if (seq.value() >= numSeqs_)
        return false;
    for (LayerIdx layer : IndexRange(LayerIdx(layers_))) {
        const Stream &st = at(seq, layer);
        if (st.len != 0 || !st.blocks.empty())
            return true;
    }
    return false;
}

void
PageTable::freeSequence(SeqId seq)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    if (seq.value() >= numSeqs_)
        throw EngineError(ErrorCode::KvInvalidSequence, "kv.free",
                          "freeSequence(" +
                              std::to_string(seq.value()) +
                              ") with only " +
                              std::to_string(numSeqs_) +
                              " sequences");
    if (!sequenceLive(seq))
        throw EngineError(ErrorCode::KvDoubleFree, "kv.free",
                          "freeSequence(" +
                              std::to_string(seq.value()) +
                              ") holds no KV state — double free or "
                              "never-appended sequence");
    for (LayerIdx layer : IndexRange(LayerIdx(layers_))) {
        Stream &st = at(seq, layer);
        for (BlockId b : st.blocks)
            deref(b);
        st.blocks.clear();
        st.len = 0;
    }
}

std::size_t
PageTable::streamLen(SeqId seq, LayerIdx layer) const
{
    return at(seq, layer).len;
}

std::span<const BlockId>
PageTable::streamBlocks(SeqId seq, LayerIdx layer) const
{
    return at(seq, layer).blocks;
}

std::size_t
PageTable::blockTokens(BlockId block) const
{
    return meta(block).tokens;
}

std::size_t
PageTable::blockStreamRefs(BlockId block) const
{
    return meta(block).streamRefs;
}

std::size_t
PageTable::blockPins(BlockId block) const
{
    return meta(block).pins;
}

} // namespace moelight
