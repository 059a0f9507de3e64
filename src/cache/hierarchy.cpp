#include "cache/hierarchy.hpp"

#include <cassert>

namespace lssim {

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2)
    : l1_(l1), l2_(l2) {
  assert(l1.block_bytes == l2.block_bytes);
}

ProbeResult CacheHierarchy::probe(Addr block) const noexcept {
  ProbeResult result;
  if (const CacheLine* line2 = l2_.find(block)) {
    result.l2_hit = true;
    result.state = line2->state;
    result.l1_hit = l1_.find(block) != nullptr;
  }
  return result;
}

CacheLine CacheHierarchy::fill(Addr block, CacheState state) {
  assert(l2_.find(block) == nullptr);
  const CacheLine l2_victim = l2_.insert(block, state);
  if (l2_victim.valid()) {
    l1_.invalidate(l2_victim.block);  // Inclusion.
  }
  if (l1_.find(block) == nullptr) {
    (void)l1_.insert_silent(block, state);  // L1 victim silent: L2 retains it.
  }
  return l2_victim;
}

void CacheHierarchy::refill_l1(Addr block) {
  const CacheLine* line2 = l2_.find(block);
  assert(line2 != nullptr && "refill_l1 requires an L2 hit");
  (void)refill_l1(*line2);
}

CacheLine* CacheHierarchy::refill_l1(const CacheLine& line2) {
  assert(l1_.find(line2.block) == nullptr);
  return l1_.insert_silent(line2.block, line2.state);
}

void CacheHierarchy::set_state(Addr block, CacheState state) noexcept {
  CacheLine* line2 = l2_.find(block);
  assert(line2 != nullptr);
  line2->state = state;
  if (CacheLine* line1 = l1_.find(block)) {
    line1->state = state;
  }
}

CacheLine CacheHierarchy::invalidate(Addr block) noexcept {
  l1_.invalidate(block);
  return l2_.invalidate(block);
}

void CacheHierarchy::record_access(Addr block,
                                   std::uint64_t word_mask) noexcept {
  CacheLine* line2 = l2_.find(block);
  assert(line2 != nullptr);
  l2_.touch(*line2);
  line2->accessed_words |= word_mask;
  if (CacheLine* line1 = l1_.find(block)) {
    l1_.touch(*line1);
  }
}

bool CacheHierarchy::check_inclusion() const {
  bool ok = true;
  const_cast<Cache&>(l1_).for_each_valid([&](const CacheLine& line1) {
    const CacheLine* line2 = l2_.find(line1.block);
    if (line2 == nullptr || line2->state != line1.state) {
      ok = false;
    }
  });
  return ok;
}

}  // namespace lssim
