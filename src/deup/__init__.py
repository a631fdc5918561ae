"""Direct epistemic uncertainty prediction for sequential model optimization."""
