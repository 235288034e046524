#include "tar/tar.hpp"

#include <cstring>

#include "support/strings.hpp"

namespace comt::tar {
namespace {

constexpr std::size_t kBlockSize = 512;

// ustar header field offsets/sizes (POSIX.1-1988).
struct HeaderLayout {
  static constexpr std::size_t name = 0, name_len = 100;
  static constexpr std::size_t mode = 100, mode_len = 8;
  static constexpr std::size_t uid = 108, uid_len = 8;
  static constexpr std::size_t gid = 116, gid_len = 8;
  static constexpr std::size_t size = 124, size_len = 12;
  static constexpr std::size_t mtime = 136, mtime_len = 12;
  static constexpr std::size_t chksum = 148, chksum_len = 8;
  static constexpr std::size_t typeflag = 156;
  static constexpr std::size_t linkname = 157, linkname_len = 100;
  static constexpr std::size_t magic = 257;
};

void write_octal(char* field, std::size_t length, std::uint64_t value) {
  // Left-zero-padded octal, NUL-terminated. Staged through a buffer wide
  // enough for any uint64 so the compiler can prove no truncation.
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%0*llo", static_cast<int>(length - 1),
                static_cast<unsigned long long>(value));
  std::memcpy(field, buffer, length - 1);
  field[length - 1] = '\0';
}

std::uint64_t read_octal(const char* field, std::size_t length) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < length; ++i) {
    char c = field[i];
    if (c == '\0' || c == ' ') break;
    if (c < '0' || c > '7') continue;
    value = value * 8 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// The ustar header checksum: the unsigned sum of all 512 header bytes with
/// the checksum field itself counted as spaces.
unsigned header_checksum(const char* header) {
  unsigned sum = 0;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    const bool in_field =
        i >= HeaderLayout::chksum && i < HeaderLayout::chksum + HeaderLayout::chksum_len;
    sum += in_field ? static_cast<unsigned char>(' ') : static_cast<unsigned char>(header[i]);
  }
  return sum;
}

/// True when the stored checksum field (octal digits after optional leading
/// spaces, then only NULs and spaces) equals the header's checksum. Parsed
/// strictly, so a damaged terminator reads as damage too.
bool checksum_matches(const char* header) {
  const char* field = header + HeaderLayout::chksum;
  std::size_t i = 0;
  while (i < HeaderLayout::chksum_len && field[i] == ' ') ++i;
  const std::size_t digits_start = i;
  unsigned stored = 0;
  for (; i < HeaderLayout::chksum_len && field[i] >= '0' && field[i] <= '7'; ++i) {
    stored = stored * 8 + static_cast<unsigned>(field[i] - '0');
  }
  if (i == digits_start) return false;
  for (; i < HeaderLayout::chksum_len; ++i) {
    if (field[i] != '\0' && field[i] != ' ') return false;
  }
  return stored == header_checksum(header);
}

void emit_header(std::string& out, std::string_view name, std::uint64_t size,
                 std::uint32_t mode, char typeflag, std::string_view linkname) {
  char header[kBlockSize];
  std::memset(header, 0, sizeof header);
  std::memcpy(header + HeaderLayout::name, name.data(),
              std::min<std::size_t>(name.size(), HeaderLayout::name_len));
  write_octal(header + HeaderLayout::mode, HeaderLayout::mode_len, mode);
  write_octal(header + HeaderLayout::uid, HeaderLayout::uid_len, 0);
  write_octal(header + HeaderLayout::gid, HeaderLayout::gid_len, 0);
  write_octal(header + HeaderLayout::size, HeaderLayout::size_len, size);
  write_octal(header + HeaderLayout::mtime, HeaderLayout::mtime_len, 0);
  header[HeaderLayout::typeflag] = typeflag;
  std::memcpy(header + HeaderLayout::linkname, linkname.data(),
              std::min<std::size_t>(linkname.size(), HeaderLayout::linkname_len));
  std::memcpy(header + HeaderLayout::magic, "ustar\00000", 8);
  std::snprintf(header + HeaderLayout::chksum, HeaderLayout::chksum_len, "%06o",
                header_checksum(header));
  header[HeaderLayout::chksum + 7] = ' ';
  out.append(header, kBlockSize);
}

void emit_padded(std::string& out, std::string_view data) {
  out.append(data);
  std::size_t remainder = data.size() % kBlockSize;
  if (remainder != 0) out.append(kBlockSize - remainder, '\0');
}

/// Emits a GNU long-name record when `name` exceeds the ustar field.
void emit_name(std::string& out, const std::string& name, std::uint64_t size,
               std::uint32_t mode, char typeflag, std::string_view linkname) {
  if (name.size() > HeaderLayout::name_len) {
    std::string with_nul = name + '\0';
    emit_header(out, "././@LongLink", with_nul.size(), 0644, 'L', "");
    emit_padded(out, with_nul);
  }
  emit_header(out, name.size() > HeaderLayout::name_len
                       ? std::string_view(name).substr(0, HeaderLayout::name_len)
                       : std::string_view(name),
              size, mode, typeflag, linkname);
}

}  // namespace

std::string pack(const vfs::Filesystem& tree) {
  std::string out;
  tree.walk([&](const std::string& path, const vfs::Node& node) {
    // Archive member names are relative ("usr/bin/gcc"), directories get a
    // trailing slash per convention.
    std::string name = path.substr(1);
    switch (node.type) {
      case vfs::NodeType::directory:
        emit_name(out, name + "/", 0, node.mode, '5', "");
        break;
      case vfs::NodeType::regular:
        emit_name(out, name, node.content.size(), node.mode, '0', "");
        emit_padded(out, node.content);
        break;
      case vfs::NodeType::symlink:
        emit_name(out, name, 0, node.mode, '2', node.content);
        break;
    }
    return true;
  });
  // End-of-archive: two zero blocks.
  out.append(2 * kBlockSize, '\0');
  return out;
}

Result<vfs::Filesystem> unpack(std::string_view archive) {
  vfs::Filesystem tree;
  std::size_t offset = 0;
  std::string pending_long_name;
  while (true) {
    // An archive cut at a member boundary must not read as a shorter tree:
    // the end-of-archive zero block is required. pack() writes two; one is
    // accepted, as other readers do.
    if (offset + kBlockSize > archive.size()) {
      return make_error(Errc::corrupt, "tar: missing end-of-archive block");
    }
    const char* header = archive.data() + offset;
    bool all_zero = true;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
      if (header[i] != '\0') {
        all_zero = false;
        break;
      }
    }
    if (all_zero) break;
    if (!checksum_matches(header)) {
      return make_error(Errc::corrupt,
                        "tar: header checksum mismatch at offset " + std::to_string(offset));
    }
    offset += kBlockSize;

    std::size_t name_length = strnlen(header + HeaderLayout::name, HeaderLayout::name_len);
    std::string name(header + HeaderLayout::name, name_length);
    std::uint64_t size = read_octal(header + HeaderLayout::size, HeaderLayout::size_len);
    std::uint32_t mode = static_cast<std::uint32_t>(
        read_octal(header + HeaderLayout::mode, HeaderLayout::mode_len));
    char typeflag = header[HeaderLayout::typeflag];
    std::size_t linkname_length =
        strnlen(header + HeaderLayout::linkname, HeaderLayout::linkname_len);
    std::string linkname(header + HeaderLayout::linkname, linkname_length);

    std::size_t padded = (size + kBlockSize - 1) / kBlockSize * kBlockSize;
    if (offset + padded > archive.size()) {
      return make_error(Errc::corrupt, "tar: truncated member " + name);
    }
    std::string_view payload = archive.substr(offset, size);
    offset += padded;

    if (typeflag == 'L') {
      pending_long_name.assign(payload.data(), payload.size());
      // Trim the trailing NUL the writer appends.
      while (!pending_long_name.empty() && pending_long_name.back() == '\0') {
        pending_long_name.pop_back();
      }
      continue;
    }
    if (!pending_long_name.empty()) {
      name = pending_long_name;
      pending_long_name.clear();
    }
    if (name.empty()) return make_error(Errc::corrupt, "tar: empty member name");
    std::string path = "/" + name;
    switch (typeflag) {
      case '5':
        COMT_TRY_STATUS(tree.make_directories(path, mode));
        break;
      case '0':
      case '\0':
        COMT_TRY_STATUS(tree.write_file(path, std::string(payload), mode));
        break;
      case '2':
        COMT_TRY_STATUS(tree.make_symlink(path, linkname));
        break;
      default:
        return make_error(Errc::unsupported,
                          std::string("tar: unsupported typeflag '") + typeflag + "' for " + name);
    }
  }
  if (!pending_long_name.empty()) {
    return make_error(Errc::corrupt, "tar: long name with no member: " + pending_long_name);
  }
  return tree;
}

}  // namespace comt::tar
