#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "netbase/hash.hpp"
#include "sched/wire.hpp"

namespace plankton::serve {

namespace {

constexpr std::size_t kHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint16_t) + sizeof(std::uint16_t);
// type u16 + reserved u16 + payload_len u64 + checksum u64 around the payload.
constexpr std::size_t kRecordOverheadBytes =
    sizeof(std::uint16_t) + sizeof(std::uint16_t) + sizeof(std::uint64_t) +
    sizeof(std::uint64_t);

std::string errno_str(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool write_all_fd(int fd, std::string_view data, std::string& error) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      error = errno_str("journal write");
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string encode_header() {
  std::string out;
  wire::put_int(out, kJournalMagic);
  wire::put_int(out, kJournalVersion);
  wire::put_int(out, std::uint16_t{0});
  return out;
}

std::string encode_record(JournalRecord type, std::string_view payload) {
  std::string out;
  wire::put_int(out, static_cast<std::uint16_t>(type));
  wire::put_int(out, std::uint16_t{0});
  wire::put_int(out, static_cast<std::uint64_t>(payload.size()));
  out.append(payload);
  wire::put_int(out,
                Journal::record_checksum(static_cast<std::uint16_t>(type),
                                         payload));
  return out;
}

bool read_file(const std::string& path, std::string& out, bool& missing,
               std::string& error) {
  missing = false;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      missing = true;
      return true;
    }
    error = errno_str("journal open");
    return false;
  }
  out.clear();
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      error = errno_str("journal read");
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

/// Validates the header and reports its version (1 or kJournalVersion).
bool check_header(std::string_view& in, std::uint16_t& version,
                  std::string& error) {
  std::uint32_t magic = 0;
  std::uint16_t reserved = 0;
  if (!wire::get_int(in, magic) || !wire::get_int(in, version) ||
      !wire::get_int(in, reserved)) {
    error = "journal header truncated";
    return false;
  }
  if (magic != kJournalMagic) {
    error = "journal bad magic";
    return false;
  }
  if (version < 1 || version > kJournalVersion) {
    error = "journal unsupported version";
    return false;
  }
  return true;
}

/// The highest record type a journal of `version` can hold.
std::uint16_t last_record_type(std::uint16_t version) {
  return static_cast<std::uint16_t>(version == 1 ? JournalRecord::kApplyDelta
                                                 : JournalRecord::kCleanHolds);
}

}  // namespace

std::uint64_t Journal::record_checksum(std::uint16_t type,
                                       std::string_view payload) {
  std::uint64_t h = hash_combine(0x504b4a31ull, type);
  h = hash_combine(h, payload.size());
  for (unsigned char c : payload) h = hash_combine(h, c);
  return h;
}

bool Journal::open(const std::string& path, std::string& error) {
  close();
  // O_APPEND: every write lands at the true end-of-file at write time — in
  // particular *after* truncate_tail chops a torn tail, where a stale file
  // offset would otherwise leave a hole of zero bytes (an unreplayable gap).
  int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    error = errno_str("journal open");
    return false;
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    error = errno_str("journal seek");
    ::close(fd);
    return false;
  }
  if (size == 0) {
    if (!write_all_fd(fd, encode_header(), error) || ::fsync(fd) != 0) {
      if (error.empty()) error = errno_str("journal fsync");
      ::close(fd);
      return false;
    }
  } else {
    // Validate the header without disturbing the append position.
    char hdr[kHeaderBytes];
    ssize_t n = ::pread(fd, hdr, sizeof(hdr), 0);
    std::string_view view(hdr, n > 0 ? static_cast<std::size_t>(n) : 0);
    std::uint16_t version = 0;
    if (!check_header(view, version, error)) {
      ::close(fd);
      return false;
    }
  }
  fd_ = fd;
  path_ = path;
  return true;
}

bool Journal::append(JournalRecord type, std::string_view payload,
                     std::string& error) {
  if (fd_ < 0) {
    error = "journal not open";
    return false;
  }
  if (!write_all_fd(fd_, encode_record(type, payload), error)) return false;
  if (::fsync(fd_) != 0) {
    error = errno_str("journal fsync");
    return false;
  }
  return true;
}

bool Journal::rewrite(std::string_view config_text,
                      std::string_view clean_holds, std::string& error) {
  if (fd_ < 0) {
    error = "journal not open";
    return false;
  }
  const std::string path = path_;
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    error = errno_str("journal tmp open");
    return false;
  }
  std::string blob = encode_header();
  blob += encode_record(JournalRecord::kLoadNet, config_text);
  blob += encode_record(JournalRecord::kCleanHolds, clean_holds);
  if (!write_all_fd(fd, blob, error) || ::fsync(fd) != 0) {
    if (error.empty()) error = errno_str("journal tmp fsync");
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    error = errno_str("journal rename");
    ::unlink(tmp.c_str());
    return false;
  }
  // Swap the append fd over to the compacted file.
  return open(path, error);
}

bool Journal::truncate_tail(std::uint64_t dropped_bytes, std::string& error) {
  if (fd_ < 0) {
    error = "journal not open";
    return false;
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0 || static_cast<std::uint64_t>(size) < dropped_bytes) {
    error = "journal truncate: tail larger than file";
    return false;
  }
  if (::ftruncate(fd_, size - static_cast<off_t>(dropped_bytes)) != 0 ||
      ::fsync(fd_) != 0) {
    error = errno_str("journal truncate");
    return false;
  }
  return true;
}

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
}

bool Journal::replay(
    const std::string& path,
    const std::function<bool(JournalRecord, std::string_view)>& apply,
    ReplayResult& out, std::string& error) {
  out = ReplayResult{};
  std::string data;
  bool missing = false;
  if (!read_file(path, data, missing, error)) return false;
  if (missing || data.empty()) return true;  // no journal yet — empty state

  std::string_view in(data);
  std::uint16_t version = 0;
  if (!check_header(in, version, error)) return false;

  while (!in.empty()) {
    std::string_view record_start = in;
    std::uint16_t type = 0;
    std::uint16_t reserved = 0;
    std::uint64_t len = 0;
    if (!wire::get_int(in, type) || !wire::get_int(in, reserved) ||
        !wire::get_int(in, len) || len > in.size() ||
        in.size() - len < sizeof(std::uint64_t)) {
      // Truncated mid-record: the torn tail of the crash. Drop it.
      out.torn_tail = true;
      out.dropped_bytes = record_start.size();
      return true;
    }
    std::string_view payload = in.substr(0, static_cast<std::size_t>(len));
    in.remove_prefix(static_cast<std::size_t>(len));
    std::uint64_t checksum = 0;
    wire::get_int(in, checksum);
    if (checksum != record_checksum(type, payload) ||
        type < static_cast<std::uint16_t>(JournalRecord::kLoadNet) ||
        type > last_record_type(version)) {
      // A corrupt record is only droppable as a *tail*: anything after it
      // has no trustworthy framing, so everything from here on is dropped.
      out.torn_tail = true;
      out.dropped_bytes = record_start.size();
      return true;
    }
    if (!apply(static_cast<JournalRecord>(type), payload)) {
      error = "journal replay: record " + std::to_string(out.applied + 1) +
              " rejected";
      return false;
    }
    ++out.applied;
  }
  return true;
}

}  // namespace plankton::serve
