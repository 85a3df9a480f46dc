// One representative file opened once. Every loader reads (URP1) or maps
// (URPZ) through the same descriptor, and every whole-file read goes
// through InputFile::ReadAll: one read() into storage that was not
// zero-filled first and whose pages were faulted in by one call, instead
// of a zero fill that traps once per page.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace useful::represent {

/// Asks the kernel to fault in the whole pages of [data, data + bytes)
/// writable in one call (madvise MADV_POPULATE_WRITE). Only a hint: where
/// the headers or the kernel lack it, the pages fault in as they are
/// written.
void Prefault(void* data, std::size_t bytes);

/// A file's bytes: exactly what read() wrote, nothing else.
struct FileImage {
  std::unique_ptr<char[]> data;
  std::size_t size = 0;

  std::string_view view() const { return {data.get(), size}; }
};

/// A file opened read-only; the descriptor closes with the object.
class InputFile {
 public:
  /// Opens `path`. A failure is an IOError whose message is only the
  /// reason (strerror), so each caller says what it was opening.
  static Result<InputFile> Open(const std::string& path);

  InputFile(InputFile&& other) noexcept;
  InputFile& operator=(InputFile&&) = delete;
  ~InputFile();

  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

  /// True when the file begins with `prefix`; false when it begins
  /// otherwise, is shorter, or cannot be read (a directory). Reads with
  /// pread, so the file offset stays at 0.
  bool StartsWith(std::string_view prefix) const;

  /// The whole regular file, read from offset 0 in a loop that retries
  /// EINTR. IOError "<path>: <reason>" when it cannot be sized or is not a
  /// regular file, and "read failed: <path>" when read fails or the file
  /// ends early.
  Result<FileImage> ReadAll() const;

 private:
  InputFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

/// Opens `path` and reads it with ReadAll: the loader of URP1 files
/// (TermTable::Load, LoadRepresentative). IOError "cannot open for
/// reading: <path>" when it cannot be opened.
Result<FileImage> ReadFileImage(const std::string& path);

}  // namespace useful::represent
