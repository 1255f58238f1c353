// StepProgram tests: the compiled per-step spans are exactly the layers'
// virtual dependency sets (same tensors, same order) on every zoo net, and
// the layer -> forward-step index agrees with the route.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/zoo.hpp"

namespace {

using namespace sn;

std::vector<tensor::Tensor*> as_vector(graph::StepProgram::Tensors ts) {
  return {ts.begin(), ts.end()};
}

struct ZooNet {
  std::string name;
  std::function<std::unique_ptr<graph::Net>()> build;
};

std::vector<ZooNet> zoo() {
  return {
      {"AlexNet", [] { return graph::build_alexnet(2); }},
      {"VGG16", [] { return graph::build_vgg(16, 2); }},
      {"VGG19", [] { return graph::build_vgg(19, 2); }},
      {"InceptionV4", [] { return graph::build_inception_v4(2); }},
      {"ResNet50", [] { return graph::build_resnet_preset(50, 2); }},
      {"ResNet101", [] { return graph::build_resnet_preset(101, 2); }},
      {"ResNet152", [] { return graph::build_resnet_preset(152, 2); }},
      {"DenseNet121", [] { return graph::build_densenet121(2); }},
      {"TinyLinear", [] { return graph::build_tiny_linear(2); }},
      {"TinyFanJoin", [] { return graph::build_tiny_fanjoin(2); }},
      {"TinyResNet", [] { return graph::build_tiny_resnet(2, 3); }},
      {"MiniAlexNet", [] { return graph::build_mini_alexnet(2); }},
  };
}

TEST(StepProgram, SpansEqualTheLayersDependencySetsOnEveryZooNet) {
  for (const ZooNet& z : zoo()) {
    auto net = z.build();
    const graph::StepProgram& prog = net->program();
    ASSERT_EQ(prog.num_steps(), static_cast<int>(net->steps().size())) << z.name;
    for (const graph::Step& st : net->steps()) {
      const graph::Layer* l = st.layer;
      const auto uses = st.forward ? l->forward_uses() : l->backward_uses();
      const auto defs = st.forward ? l->forward_defs() : l->backward_defs();
      ASSERT_EQ(as_vector(prog.uses(st.index)), uses) << z.name << " step " << st.index;
      ASSERT_EQ(as_vector(prog.defs(st.index)), defs) << z.name << " step " << st.index;
    }
  }
}

TEST(StepProgram, ForwardStepIndexMatchesTheRoute) {
  for (const ZooNet& z : zoo()) {
    auto net = z.build();
    const graph::StepProgram& prog = net->program();
    const int nsteps = prog.num_steps();
    for (size_t i = 0; i < net->route().size(); ++i) {
      const graph::Layer* l = net->route()[i];
      const int f = prog.forward_step(l);
      ASSERT_EQ(f, static_cast<int>(i)) << z.name << " " << l->name();
      // The mirrored backward step runs the same layer.
      ASSERT_EQ(net->steps()[static_cast<size_t>(nsteps - 1 - f)].layer, l) << z.name;
    }
  }
}

TEST(StepProgram, ProducerStepsComeFromTheForwardDefs) {
  auto net = graph::build_tiny_resnet(2, 2);
  for (const graph::Layer* l : net->route()) {
    for (const tensor::Tensor* t : l->forward_defs()) {
      EXPECT_EQ(t->producer_step, net->program().forward_step(l)) << t->name();
    }
  }
}

}  // namespace
