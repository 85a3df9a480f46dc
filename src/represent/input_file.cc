#include "represent/input_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

namespace useful::represent {

void AdviseWholePages(const void* data, std::size_t bytes, int advice) {
  static const auto page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = (begin + page - 1) & ~(page - 1);
  const std::uintptr_t last = (begin + bytes) & ~(page - 1);
  if (first < last) {
    ::madvise(reinterpret_cast<void*>(first), last - first, advice);
  }
}

void Prefault([[maybe_unused]] void* data, [[maybe_unused]] std::size_t bytes) {
#ifdef MADV_POPULATE_WRITE
  // A kernel older than 5.14 answers EINVAL, and a page the call leaves
  // out faults in when it is first written.
  AdviseWholePages(data, bytes, MADV_POPULATE_WRITE);
#endif
}

Result<InputFile> InputFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(std::strerror(errno));
  return InputFile(fd, path);
}

InputFile::InputFile(InputFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

InputFile::~InputFile() {
  if (fd_ >= 0) ::close(fd_);
}

bool InputFile::StartsWith(std::string_view prefix) const {
  std::string head(prefix.size(), '\0');
  ssize_t n;
  do {
    n = ::pread(fd_, head.data(), head.size(), 0);
  } while (n < 0 && errno == EINTR);
  return n == static_cast<ssize_t>(head.size()) && head == prefix;
}

Status InputFile::ReadAll(FileImage* image) const {
  image->size = 0;
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    return Status::IOError(path_ + ": " + std::strerror(err));
  }
  // Only a regular file has a size to read.
  if (S_ISDIR(st.st_mode)) {
    return Status::IOError(path_ + ": " + std::strerror(EISDIR));
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::IOError(path_ + ": " + std::strerror(ENOTSUP));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > image->capacity) {
    image->data.reset();  // never hold the old storage and the new at once
    image->data = std::make_unique_for_overwrite<char[]>(size);
    image->capacity = size;
    Prefault(image->data.get(), size);
  }
  for (std::size_t done = 0; done < size;) {
    const ssize_t n = ::read(fd_, image->data.get() + done, size - done);
    if (n < 0 && errno == EINTR) continue;
    // A file that ends before its fstat size is as unreadable as an error:
    // the bytes past the end were never written.
    if (n <= 0) return Status::IOError("read failed: " + path_);
    done += static_cast<std::size_t>(n);
  }
  image->size = size;
  return Status::OK();
}

Result<FileImage> ReadFileImage(const std::string& path) {
  Result<InputFile> file = InputFile::Open(path);
  if (!file.ok()) return Status::IOError("cannot open for reading: " + path);
  FileImage image;
  USEFUL_RETURN_IF_ERROR(file.value().ReadAll(&image));
  return image;
}

}  // namespace useful::represent
