#include "src/pico/framework.hpp"

#include "src/common/log.hpp"

namespace pd::pico {

Result<PicoBinding> PicoBinding::bind(os::McKernel& mck, os::LinuxKernel& linux_kernel,
                                      const dwarf::ModuleBinary& module,
                                      const std::vector<StructRequest>& requests) {
  PicoBinding binding;
  binding.mck_ = &mck;
  binding.linux_ = &linux_kernel;

  // (1) Address-space unification (§3.1).
  const mem::UnificationReport unification =
      mem::check_unification(linux_kernel.layout(), mck.layout());
  if (!unification.unified()) {
    for (const auto& v : unification.violations)
      PD_LOG(error) << "picodriver bind: " << v;
    return Errno::eperm;
  }
  // Map the LWK image into Linux (done at LWK boot in the paper; idempotent
  // here — a second PicoDriver reuses the existing reservation).
  if (!linux_kernel.text_visible(mck.layout().image.start)) {
    if (Status s = linux_kernel.reserve_vmap_area(mck.layout().image); !s.ok())
      return s.error();
  }

  // (2) Spin-lock compatibility (§3.3).
  if (mck.spinlock_abi() != linux_kernel.spinlock_abi()) return Errno::enosys;

  // (3) DWARF structure extraction from the shipped binary (§3.2).
  auto view = module.debug_info();
  if (!view.ok()) return view.error();
  binding.view_ = std::make_shared<dwarf::DebugInfoView>(std::move(*view));

  for (const auto& req : requests) {
    auto layout = dwarf::extract_struct(*binding.view_, req.name, req.fields);
    if (!layout.ok()) {
      PD_LOG(error) << "picodriver bind: extraction of '" << req.name << "' failed: "
                    << to_string(layout.error());
      return layout.error();
    }
    binding.layouts_.emplace(req.name, std::move(*layout));
  }

  binding.driver_version_ = module.version().value_or("unknown");
  PD_LOG(info) << "picodriver bound against " << binding.driver_version_ << " ("
               << binding.layouts_.size() << " structures)";
  return binding;
}

const dwarf::StructLayout* PicoBinding::layout(const std::string& struct_name) const {
  auto it = layouts_.find(struct_name);
  return it == layouts_.end() ? nullptr : &it->second;
}

Result<std::string> PicoBinding::generated_header(const std::string& struct_name) const {
  const dwarf::StructLayout* l = layout(struct_name);
  if (l == nullptr || !view_) return Errno::enoent;
  return dwarf::generate_header(*view_, *l);
}

os::KernelCallback PicoBinding::lwk_callback(std::function<void()> fn) const {
  return os::KernelCallback{mck_->layout().image.start + 0x2000, std::move(fn)};
}

}  // namespace pd::pico
