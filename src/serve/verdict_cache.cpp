#include "serve/verdict_cache.hpp"

#include <cstdio>
#include <vector>

#include "sched/wire.hpp"

namespace plankton::serve {

using wire::get_int;
using wire::put_int;

bool VerdictCache::lookup(const CacheKey& key, CacheEntry& out) {
  Stripe& s = stripe_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!it->second.clean_hold()) {
    nonclean_bypass_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  out = it->second;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool VerdictCache::contains(const CacheKey& key) const {
  const Stripe& s = stripe_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.map.find(key) != s.map.end();
}

void VerdictCache::insert(const CacheKey& key, const CacheEntry& entry) {
  Stripe& s = stripe_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  s.map[key] = entry;
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void VerdictCache::clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
  }
}

std::size_t VerdictCache::size() const {
  std::size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

CacheCounters VerdictCache::counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.nonclean_bypass = nonclean_bypass_.load(std::memory_order_relaxed);
  c.insertions = insertions_.load(std::memory_order_relaxed);
  c.warm_loaded = warm_loaded_.load(std::memory_order_relaxed);
  c.entries = size();
  return c;
}

namespace {

constexpr std::size_t kEntryWireBytes = 8 + 8 + 1;  // cone, ctx, verdict

void put_entry(std::string& out, const CacheKey& key, const CacheEntry& e) {
  put_int(out, key.cone);
  put_int(out, key.ctx);
  put_int(out, e.verdict);
}

bool get_entry(std::string_view& in, CacheKey& key, CacheEntry& e) {
  return get_int(in, key.cone) && get_int(in, key.ctx) &&
         get_int(in, e.verdict);
}

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = "cannot open '" + path + "'";
    return false;
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) error = "read error on '" + path + "'";
  return ok;
}

}  // namespace

bool VerdictCache::save(const std::string& path, std::string& error) const {
  std::string blob;
  put_int(blob, kCacheMagic);
  put_int(blob, kCacheVersion);
  put_int(blob, std::uint16_t{0});  // reserved
  std::uint64_t count = 0;
  const std::size_t count_pos = blob.size();
  put_int(blob, count);
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [key, entry] : s.map) {
      put_entry(blob, key, entry);
      ++count;
    }
  }
  std::string count_bytes;
  put_int(count_bytes, count);
  blob.replace(count_pos, count_bytes.size(), count_bytes);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    error = "cannot create '" + tmp + "'";
    return false;
  }
  const bool wrote = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    error = "write error on '" + tmp + "'";
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = "cannot rename '" + tmp + "' to '" + path + "'";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool VerdictCache::load(const std::string& path, std::string& error) {
  std::string blob;
  if (!read_file(path, blob, error)) return false;
  std::string_view in = blob;
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t reserved = 0;
  std::uint64_t count = 0;
  if (!get_int(in, magic) || !get_int(in, version) || !get_int(in, reserved) ||
      !get_int(in, count)) {
    error = "truncated cache header in '" + path + "'";
    return false;
  }
  if (magic != kCacheMagic) {
    error = "bad cache magic in '" + path + "'";
    return false;
  }
  if (version != kCacheVersion) {
    error = "unsupported cache version in '" + path + "'";
    return false;
  }
  if (!wire::fits(in, count, kEntryWireBytes)) {
    error = "cache entry count exceeds file size in '" + path + "'";
    return false;
  }
  // Decode fully before touching the live cache: a corrupt tail must not
  // leave a half-loaded state behind.
  std::vector<std::pair<CacheKey, CacheEntry>> loaded;
  loaded.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CacheKey key;
    CacheEntry e;
    if (!get_entry(in, key, e)) {
      error = "truncated cache entry in '" + path + "'";
      return false;
    }
    if (e.verdict > static_cast<std::uint8_t>(Verdict::kError)) {
      error = "corrupt cache entry in '" + path + "'";
      return false;
    }
    loaded.emplace_back(key, e);
  }
  if (!in.empty()) {
    error = "trailing bytes in '" + path + "'";
    return false;
  }
  clear();
  for (const auto& [key, e] : loaded) {
    Stripe& s = stripe_of(key);
    std::lock_guard<std::mutex> lock(s.mu);
    s.map[key] = e;
  }
  warm_loaded_.fetch_add(count, std::memory_order_relaxed);
  return true;
}

}  // namespace plankton::serve
