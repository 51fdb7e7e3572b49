#include "rt/packet.hpp"

#include <cstring>
#include <new>

namespace nscc::rt {

Packet::Buffer* Packet::reallocate(std::size_t capacity) {
  const std::size_t size = end_ - begin_;
  void* raw = ::operator new(sizeof(Buffer) + capacity);
  Buffer* fresh = ::new (raw) Buffer{1, capacity};
  if (size > 0) std::memcpy(fresh->bytes(), at(begin_), size);
  Buffer* old = buf_;
  buf_ = fresh;
  rpos_ -= begin_;
  begin_ = 0;
  end_ = size;
  return old;
}

void Packet::free_buffer(Buffer* b) noexcept { ::operator delete(b); }

}  // namespace nscc::rt
