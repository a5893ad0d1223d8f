#include "serve/verdict_cache.hpp"

namespace plankton::serve {

bool VerdictCache::lookup(const CacheKey& key) {
  Stripe& s = stripe_of(key);
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    hit = s.keys.contains(key);
  }
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void VerdictCache::insert(const CacheKey& key, Verdict verdict) {
  if (verdict != Verdict::kHolds) return;
  Stripe& s = stripe_of(key);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.keys.insert(key);
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void VerdictCache::restore(const std::vector<CacheKey>& keys) {
  for (const CacheKey& key : keys) {
    Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lock(s.mu);
    s.keys.insert(key);
  }
  warm_loaded_.fetch_add(keys.size(), std::memory_order_relaxed);
}

std::vector<CacheKey> VerdictCache::keys() const {
  std::vector<CacheKey> out;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.insert(out.end(), s.keys.begin(), s.keys.end());
  }
  return out;
}

std::size_t VerdictCache::size() const {
  std::size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.keys.size();
  }
  return n;
}

CacheCounters VerdictCache::counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.insertions = insertions_.load(std::memory_order_relaxed);
  c.warm_loaded = warm_loaded_.load(std::memory_order_relaxed);
  c.entries = size();
  return c;
}

}  // namespace plankton::serve
