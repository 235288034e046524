#include "store/disk.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <optional>

#include "store/wire.hpp"

namespace comt::store {
namespace {

namespace stdfs = std::filesystem;

constexpr std::string_view kTempDir = ".tmp";
constexpr std::size_t kFrameHeaderSize = sizeof(std::uint32_t) + sizeof(std::uint64_t);
constexpr char kHexDigits[] = "0123456789ABCDEF";

/// Bytes that pass through the key↔filename mapping unescaped. Everything
/// else (including '%' itself) is percent-encoded, so decode(encode(k)) == k
/// for arbitrary byte strings.
bool safe_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '.' || c == '_' || c == '-' || c == '+';
}

void encode_byte(std::string& out, char c) {
  out.push_back('%');
  out.push_back(kHexDigits[(static_cast<unsigned char>(c) >> 4) & 0xF]);
  out.push_back(kHexDigits[static_cast<unsigned char>(c) & 0xF]);
}

/// One path segment of a key, percent-encoded. "." and ".." are encoded in
/// full so a key can never escape the root or alias the directory links.
std::string encode_segment(std::string_view segment) {
  std::string out;
  out.reserve(segment.size());
  const bool dots_only = segment == "." || segment == "..";
  for (char c : segment) {
    if (!dots_only && safe_char(c)) {
      out.push_back(c);
    } else {
      encode_byte(out, c);
    }
  }
  return out;
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Inverse of encode_segment. Returns nullopt for a filename that is not a
/// valid encoding (stray files in the directory are not ours — skip them).
std::optional<std::string> decode_segment(std::string_view segment) {
  std::string out;
  out.reserve(segment.size());
  for (std::size_t i = 0; i < segment.size(); ++i) {
    if (segment[i] != '%') {
      out.push_back(segment[i]);
      continue;
    }
    if (i + 2 >= segment.size()) return std::nullopt;
    const int hi = hex_value(segment[i + 1]);
    const int lo = hex_value(segment[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

Result<std::string> read_file(const stdfs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error(Errc::not_found, "store: no such key (cannot open " + path.string() + ")");
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) return make_error(Errc::failed, "store: read failed: " + path.string());
  return content;
}

/// Wraps `value` in the journal-convention frame.
std::string frame_value(std::string_view value) {
  std::string out;
  out.reserve(kFrameHeaderSize + value.size());
  wire::put_u32(out, static_cast<std::uint32_t>(value.size()));
  wire::put_u64(out, wire::fnv1a64(value));
  out.append(value);
  return out;
}

/// Strips and verifies the frame. A short header, a size that disagrees with
/// the file, or a checksum mismatch all mean the stored bytes are damaged.
Result<std::string> unframe_value(std::string&& encoded, const std::string& key) {
  if (encoded.size() < kFrameHeaderSize) {
    return make_error(Errc::corrupt, "store: torn value (short frame header): " + key);
  }
  wire::Reader header{std::string_view(encoded).substr(0, kFrameHeaderSize)};
  const std::uint32_t payload_size = header.u32();
  const std::uint64_t checksum = header.u64();
  if (encoded.size() != kFrameHeaderSize + payload_size) {
    return make_error(Errc::corrupt, "store: torn value (frame size mismatch): " + key);
  }
  std::string payload = encoded.substr(kFrameHeaderSize);
  if (wire::fnv1a64(payload) != checksum) {
    return make_error(Errc::corrupt, "store: value checksum mismatch: " + key);
  }
  return payload;
}

Status fsync_path(const stdfs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::success();  // deleted since it was written — nothing to flush
  Status status = Status::success();
  if (::fsync(fd) != 0) {
    status = make_error(Errc::failed, "store: fsync failed: " + path.string());
  }
  ::close(fd);
  return status;
}

}  // namespace

DiskStore::DiskStore(std::string root) : DiskStore(std::move(root), Options()) {}

DiskStore::DiskStore(std::string root, Options options)
    : root_(std::move(root)), options_(options) {}

Result<stdfs::path> DiskStore::key_path(std::string_view key) const {
  if (key.empty()) return make_error(Errc::invalid_argument, "store: empty key");
  stdfs::path path(root_);
  std::size_t start = 0;
  while (start <= key.size()) {
    const std::size_t slash = key.find('/', start);
    const std::string_view segment =
        key.substr(start, slash == std::string_view::npos ? std::string_view::npos
                                                          : slash - start);
    if (segment.empty()) {
      return make_error(Errc::invalid_argument,
                        "store: key has an empty path segment: " + std::string(key));
    }
    path /= encode_segment(segment);
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  return path;
}

Status DiskStore::write_atomic(const stdfs::path& path, std::string_view bytes) {
  std::error_code ec;
  stdfs::create_directories(path.parent_path(), ec);
  if (ec) {
    return make_error(Errc::failed,
                      "store: cannot create " + path.parent_path().string() + ": " + ec.message());
  }
  stdfs::path temp_dir = stdfs::path(root_) / kTempDir;
  stdfs::create_directories(temp_dir, ec);
  if (ec) {
    return make_error(Errc::failed, "store: cannot create " + temp_dir.string() + ": " + ec.message());
  }
  stdfs::path temp;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    temp = temp_dir / ("t" + std::to_string(temp_seq_++));
  }
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return make_error(Errc::failed, "store: cannot open for writing: " + temp.string());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return make_error(Errc::failed, "store: short write: " + temp.string());
  }
  stdfs::rename(temp, path, ec);
  if (ec) {
    stdfs::remove(temp, ec);
    return make_error(Errc::failed, "store: rename failed: " + path.string());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  dirty_.insert(path.string());
  return Status::success();
}

void DiskStore::notify(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  note_wakes(watchers_.notify(key));
}

Result<std::string> DiskStore::read_value(const stdfs::path& path, std::string_view key) const {
  COMT_TRY(std::string encoded, read_file(path));
  if (!options_.framed) return encoded;
  return unframe_value(std::move(encoded), std::string(key));
}

Result<std::string> DiskStore::get(std::string_view key) const {
  COMT_TRY(stdfs::path path, key_path(key));
  auto value = read_value(path, key);
  if (!value.ok()) {
    if (value.error().code == Errc::corrupt) note_corrupt();
    return value;
  }
  note_get(value.value().size());
  return value;
}

Status DiskStore::put(std::string_view key, std::string value) {
  COMT_TRY(stdfs::path path, key_path(key));
  std::string encoded = options_.framed ? frame_value(value) : std::move(value);
  std::optional<std::size_t> torn;
  if (faults() != nullptr) torn = faults()->check_torn(kStorePutSite, encoded.size());
  if (torn.has_value()) {
    // A real torn write lands on the final path (the rename already happened
    // or the filesystem journaled a partial flush); bypass the temp file so
    // the next get() sees exactly the torn prefix.
    std::error_code ec;
    stdfs::create_directories(path.parent_path(), ec);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (out) out.write(encoded.data(), static_cast<std::streamsize>(*torn));
    }
    notify(key);
    throw support::CrashInjected{std::string(kStorePutSite)};
  }
  COMT_TRY_STATUS(write_atomic(path, encoded));
  notify(key);
  note_put(encoded.size() - (options_.framed ? kFrameHeaderSize : 0));
  return Status::success();
}

Status DiskStore::erase(std::string_view key) {
  COMT_TRY(stdfs::path path, key_path(key));
  std::error_code ec;
  stdfs::remove(path, ec);
  if (ec) return make_error(Errc::failed, "store: cannot remove " + path.string());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dirty_.erase(path.string());
    note_wakes(watchers_.notify(key));
  }
  note_erase();
  return Status::success();
}

bool DiskStore::contains(std::string_view key) const {
  auto path = key_path(key);
  if (!path.ok()) return false;
  std::error_code ec;
  return stdfs::is_regular_file(path.value(), ec);
}

Result<std::uint64_t> DiskStore::size(std::string_view key) const {
  COMT_TRY(stdfs::path path, key_path(key));
  std::error_code ec;
  const std::uintmax_t bytes = stdfs::file_size(path, ec);
  if (ec) return make_error(Errc::not_found, "store: no such key: " + std::string(key));
  if (!options_.framed) return static_cast<std::uint64_t>(bytes);
  return bytes >= kFrameHeaderSize ? static_cast<std::uint64_t>(bytes - kFrameHeaderSize) : 0;
}

std::vector<KvEntry> DiskStore::list(std::string_view prefix) const {
  std::vector<KvEntry> out;
  std::error_code ec;
  stdfs::recursive_directory_iterator it(root_, ec);
  if (ec) return out;  // no directory yet — an empty store
  const stdfs::path temp_dir = stdfs::path(root_) / kTempDir;
  for (stdfs::recursive_directory_iterator end; it != end; it.increment(ec)) {
    if (ec) break;
    if (it->path() == temp_dir) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file(ec)) continue;
    // Re-assemble the key from the decoded path segments under root.
    const stdfs::path relative = stdfs::relative(it->path(), root_, ec);
    if (ec) continue;
    std::string key;
    bool valid = true;
    for (const stdfs::path& part : relative) {
      auto segment = decode_segment(part.string());
      if (!segment.has_value()) {
        valid = false;
        break;
      }
      if (!key.empty()) key.push_back('/');
      key += *segment;
    }
    if (!valid || key.compare(0, prefix.size(), prefix) != 0) continue;
    const std::uintmax_t bytes = it->file_size(ec);
    if (ec) continue;
    std::uint64_t size = static_cast<std::uint64_t>(bytes);
    if (options_.framed) size = size >= kFrameHeaderSize ? size - kFrameHeaderSize : 0;
    out.push_back(KvEntry{std::move(key), size});
  }
  std::sort(out.begin(), out.end(),
            [](const KvEntry& a, const KvEntry& b) { return a.key < b.key; });
  return out;
}

Status DiskStore::sync() {
  obs::Span span = sync_span();
  std::set<std::string> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(dirty_);
  }
  Status status = Status::success();
  std::set<std::string> parents;
  for (const std::string& file : pending) {
    Status flushed = fsync_path(file);
    if (status.ok() && !flushed.ok()) status = flushed;
    parents.insert(stdfs::path(file).parent_path().string());
  }
  for (const std::string& dir : parents) {
    Status flushed = fsync_path(dir);
    if (status.ok() && !flushed.ok()) status = flushed;
  }
  // Drop the temp directory when it is empty — an exported OCI layout
  // directory should hold exactly the spec's files. Fails harmlessly (and is
  // ignored) while a concurrent put still has a temp file in flight.
  std::error_code ec;
  stdfs::remove(stdfs::path(root_) / kTempDir, ec);
  span.annotate("files", static_cast<std::uint64_t>(pending.size()));
  note_sync();
  return status;
}

Result<bool> DiskStore::wait_change(std::string_view key, const std::optional<std::string>& seen,
                                    std::chrono::steady_clock::time_point deadline) const {
  COMT_TRY(stdfs::path path, key_path(key));
  // The read runs under mutex_, which every write takes to notify after its
  // rename: a write lands either before this read or after the watch began.
  std::unique_lock<std::mutex> lock(mutex_);
  return watchers_.wait(lock, key, deadline, [&] {
    auto value = read_value(path, key);
    if (!value.ok() && value.error().code == Errc::not_found) return seen.has_value();
    // A damaged or unreadable file differs from every value a caller saw.
    return !value.ok() || !seen.has_value() || value.value() != *seen;
  });
}

}  // namespace comt::store
